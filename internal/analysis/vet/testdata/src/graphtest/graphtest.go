// Package graphtest is call-graph testdata: direct calls, interface
// dispatch (CHA), and function values bound to a parameter.
package graphtest

// Shape is dispatched through CHA: a call to Area resolves to every
// loaded implementation.
type Shape interface{ Area() float64 }

// Circle is one implementation.
type Circle struct{ R float64 }

// Area implements Shape.
func (c Circle) Area() float64 { return 3 * c.R * c.R }

// Square is the other implementation.
type Square struct{ S float64 }

// Area implements Shape.
func (s Square) Area() float64 { return s.S * s.S }

// Total calls through the interface.
func Total(shapes []Shape) float64 {
	t := 0.0
	for _, s := range shapes {
		t += s.Area()
	}
	return t
}

// Direct makes a plain static call.
func Direct() float64 { return helper() }

func helper() float64 { return 1 }

// Pool runs its func parameter on goroutines.
func Pool(n int, fn func(int)) {
	for i := 0; i < n; i++ {
		go fn(i)
	}
}

// Launch passes a closure into Pool; the closure's body's calls must be
// attributed to it.
func Launch(results []float64) {
	Pool(len(results), func(k int) {
		results[k] = helper()
	})
}
