package core

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"minkowski/internal/chaos"
)

// goldenRun drives cfg (under script, if it has faults) for the given
// number of sim-hours and returns the final Journal.Digest, an FNV
// chain over the Plan.Fingerprint of every solve cycle, and the FNV-64a
// of the encoded end-of-run obs snapshot (the work counters: pairs,
// re-evals, dispatches, enactments, link checks). The engine is
// advanced one sim-second at a time — far below any solve interval —
// so each cycle's plan is seen exactly once; a held cycle re-hashes the
// plan it kept in force, a crashed process hashes as "nil".
func goldenRun(cfg Config, script chaos.Scenario, hours int) (journal, plans, obsSnap uint64) {
	c := New(cfg)
	if len(script.Faults) > 0 {
		c.InstallChaos(script)
	}
	chain := fnv.New64a()
	seen := 0
	for s := 1; s <= hours*3600; s++ {
		c.Run(float64(s))
		if c.SolveRuns == seen {
			continue
		}
		seen = c.SolveRuns
		fp := "nil\n"
		if p := c.LastPlan(); p != nil {
			fp = p.Fingerprint()
		}
		fmt.Fprintf(chain, "cycle %d\n%s", seen, fp)
	}
	enc, err := c.ObsSnapshot().Encode()
	if err != nil {
		panic(err)
	}
	snap := fnv.New64a()
	snap.Write(enc)
	return c.Journal.Digest(), chain.Sum64(), snap.Sum64()
}

// TestGoldenJournalDigests is the cheap byte-identity oracle for
// refactors (ROADMAP 4a, 6a): the dispatch journal's end state, every
// cycle's plan, and the obs snapshot, folded to three constants per
// scenario. The third catches what the first two cannot: a refactor
// that reaches the same decisions by doing a different amount of work.
// A change that is meant to leave behaviour alone must leave these
// alone; a change that is meant to move them updates the constants and
// says why.
func TestGoldenJournalDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden constants were captured on amd64; %s may fuse or round float ops differently", runtime.GOARCH)
	}
	failover := chaos.Scenario{
		Name: "golden-failover",
		Faults: []chaos.Fault{
			{Kind: chaos.ControllerFailover, At: 3600, Duration: 600},
		},
	}
	// A symmetric mesh partition, then a whole-controller crash while
	// the mesh is still healing: the restart reconciles against a fabric
	// the partition reshaped.
	partitionCrash := chaos.Scenario{
		Name: "golden-partition-crash",
		Faults: []chaos.Fault{
			{Kind: chaos.ManetPartition, Target: "hbal-001,hbal-004", At: 2400, Duration: 1200},
			{Kind: chaos.ControllerCrash, At: 4500, Duration: 420},
		},
	}
	for _, tc := range []struct {
		name                    string
		cfg                     Config
		script                  chaos.Scenario
		hours                   int
		journal, plans, obsSnap uint64
	}{
		{"scale1", detConfig(11), chaos.Scenario{}, 2, 0x641d88f930cb1334, 0xc5054dd55f354738, 0x01ae6e49dc335758},
		{"scale2", detConfig(16), chaos.Scenario{}, 2, 0xdc39a2d22e9db4bc, 0xc32af1f813906006, 0x63dbdd77b200422e},
		{"scale3", detConfig(21), chaos.Scenario{}, 2, 0x317a493c9c608542, 0xc696d3a6984518ec, 0x39592d15a2220ec9},
		{"failover-promotion", replConfig(7), failover, 3, 0x338bc875054e32ab, 0x77c9e2098a6aae0d, 0x956a95117310687c},
		{"partition-crash", fastConfig(5), partitionCrash, 3, 0x7e9cd9fcf2a84c8d, 0x29d8e0e7fc02f7d5, 0xdc72a18d41ad4809},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j, p, o := goldenRun(tc.cfg, tc.script, tc.hours)
			if j != tc.journal || p != tc.plans || o != tc.obsSnap {
				t.Errorf("journal digest %#x, plan chain %#x, obs snapshot %#x; golden %#x, %#x, %#x",
					j, p, o, tc.journal, tc.plans, tc.obsSnap)
			}
		})
	}
}
