package main

import (
	"slices"
	"strings"
	"testing"
)

// TestSurface runs the surface lint over the fixture module in
// testdata/surface: a function only a test calls is reported, a String
// method is exempt through fmt.Stringer, an allowlisted name passes, and
// an allow entry that is used (directly or through an interface), names
// nothing or gives no reason fails.
func TestSurface(t *testing.T) {
	const root = "testdata/surface"
	findings, err := checkSurface(root, "internal", map[string]string{
		"internal/p.Allowed": "the fixture's planted allowlisted function",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], "internal/p/p.go:11:1: internal/p.Planted:") {
		t.Errorf("findings = %q, want one, for Planted", findings)
	}

	findings, err = checkSurface(root, "internal", map[string]string{
		"internal/p.Allowed":  "the fixture's planted allowlisted function",
		"internal/p.Planted":  "",
		"internal/p.Used":     "stale: the command calls it",
		"internal/p.T.String": "stale: fmt.Stringer reaches it",
		"internal/p.Gone":     "stale: nothing declares it",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/p/p.go:11:1: internal/p.Planted: no non-test file of the module references it",
		"allow entry internal/p.Gone: no such function or method",
		"allow entry internal/p.Planted: gives no reason",
		"allow entry internal/p.T.String: now referenced by non-test code",
		"allow entry internal/p.Used: now referenced by non-test code",
	}
	if !slices.Equal(findings, want) {
		t.Errorf("findings = %q,\nwant %q", findings, want)
	}
}
