// Package p plants one exported function of each kind the surface lint
// tells apart.
package p

import "fmt"

// Used is called by the fixture's command.
func Used() {}

// Planted is called only by p_test.go.
func Planted() {}

// Allowed is reached by no file; the test allowlists it.
func Allowed() {}

// T is never used, but String satisfies fmt.Stringer.
type T struct{}

// String renders a T.
func (T) String() string { return fmt.Sprint("t") }
