package vet_test

import (
	"go/ast"
	"go/types"
	"testing"

	"minkowski/internal/analysis/vet"
)

func edgeTo(from, to *vet.Node, kind vet.CallKind) bool {
	for _, e := range from.Out {
		if e.Callee == to && e.Kind == kind {
			return true
		}
	}
	return false
}

func TestCallGraph(t *testing.T) {
	pkg := loadTestdata(t, nil, "graphtest")
	for _, terr := range pkg.TypeErrors {
		t.Fatalf("graphtest does not type-check: %v", terr)
	}
	g := vet.BuildCallGraph([]*vet.Package{pkg})
	scope := pkg.Types.Scope()
	fn := func(name string) *types.Func {
		obj, _ := scope.Lookup(name).(*types.Func)
		if obj == nil {
			t.Fatalf("no function %s in graphtest", name)
		}
		return obj
	}
	method := func(typeName, methodName string) *types.Func {
		named := scope.Lookup(typeName).Type().(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == methodName {
				return m
			}
		}
		t.Fatalf("no method %s.%s", typeName, methodName)
		return nil
	}

	// Static call: Direct → helper.
	if !edgeTo(g.FuncNode(fn("Direct")), g.FuncNode(fn("helper")), vet.KindCall) {
		t.Error("missing static edge Direct → helper")
	}

	// Interface CHA: Total → every loaded Area implementation.
	total := g.FuncNode(fn("Total"))
	for _, impl := range []string{"Circle", "Square"} {
		if !edgeTo(total, g.FuncNode(method(impl, "Area")), vet.KindCall) {
			t.Errorf("missing CHA edge Total → %s.Area", impl)
		}
	}

	// The closure Launch passes into Pool: bound at the call site, and
	// its body's calls attributed to it.
	launch := g.FuncNode(fn("Launch"))
	var lit *ast.FuncLit
	ast.Inspect(launch.Decl.Body, func(n ast.Node) bool {
		if l, ok := n.(*ast.FuncLit); ok {
			lit = l
		}
		return true
	})
	if lit == nil {
		t.Fatal("no closure in Launch")
	}
	litNode := g.LitNode(lit)
	if litNode == nil {
		t.Fatal("no node for Launch's closure")
	}
	if !edgeTo(launch, g.FuncNode(fn("Pool")), vet.KindCall) {
		t.Error("missing edge Launch → Pool")
	}
	if !edgeTo(g.FuncNode(fn("Pool")), litNode, vet.KindBound) {
		t.Error("missing bound edge Pool → closure (the value Pool may invoke)")
	}
	if !edgeTo(litNode, g.FuncNode(fn("helper")), vet.KindCall) {
		t.Error("missing edge closure → helper")
	}
}

// TestObjectPath covers the graph's cross-realm addressing scheme:
// package-level objects by name, methods as Type.Method, locals
// unaddressable.
func TestObjectPath(t *testing.T) {
	pkg := loadTestdata(t, nil, "graphtest")
	scope := pkg.Types.Scope()

	if p, ok := vet.ObjectPath(scope.Lookup("Total")); !ok || p != "Total" {
		t.Errorf("ObjectPath(Total) = %q, %v", p, ok)
	}
	circle := scope.Lookup("Circle").Type().(*types.Named)
	var area types.Object
	for i := 0; i < circle.NumMethods(); i++ {
		if circle.Method(i).Name() == "Area" {
			area = circle.Method(i)
		}
	}
	if p, ok := vet.ObjectPath(area); !ok || p != "Circle.Area" {
		t.Errorf("ObjectPath(Circle.Area) = %q, %v", p, ok)
	}
	if _, ok := vet.ObjectPath(nil); ok {
		t.Error("ObjectPath(nil) should not be addressable")
	}
}
