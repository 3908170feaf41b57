package analysis

import "testing"

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, NewDeterminism("fixture/determ"), "determ")
}

func TestDeterminismTaintFixture(t *testing.T) {
	// Two packages in one Program: dtaint is scoped, dtaintlib is not,
	// but dtaint imports it, so the import closure covers both.
	runFixturePkgs(t, NewDeterminism("fixture/dtaint"), "dtaint", "dtaintlib")
}

func TestDeterminismOutOfScope(t *testing.T) {
	// The same fixture outside the analyzer's scope yields nothing: the
	// pass must never fire on packages that legitimately use wall clocks.
	a := NewDeterminism("fixture/otherpackage")
	loader, err := NewLoader("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("testdata/src/determ", "fixture/determ")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("out-of-scope package produced %d diagnostics, first: %s", len(diags), diags[0])
	}
}
