package analysis

import "testing"

// TestRepoIsClean is the acceptance gate behind `make lint`: the default
// analyzer suite must run clean over the whole module. Any new finding
// means either real nondeterminism/allocation crept in, or an
// intentional site is missing its reviewed //copart: annotation.
func TestRepoIsClean(t *testing.T) {
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; the module walk is broken", len(pkgs))
	}
	diags, err := Run(pkgs, Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	// The determinism scope reaches past the seven named packages into
	// everything they import, and no further.
	scope := importClosure(NewProgram(pkgs), DefaultDeterministicPackages)
	for path, want := range map[string]bool{
		"repro/internal/core":         true,
		"repro/internal/pmc":          true,
		"repro/internal/controlplane": true,
		"repro/internal/analysis":     false,
		"repro/cmd/copartd":           false,
	} {
		if scope[path] != want {
			t.Errorf("determinism scope has %s = %v, want %v", path, scope[path], want)
		}
	}
	t.Logf("determinism scope: %d packages", len(scope))
}
