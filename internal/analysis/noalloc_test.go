package analysis

import "testing"

func TestNoAllocFixture(t *testing.T) {
	// noalloclib is loaded alongside so the callee rule sees a method
	// declared in a second module package.
	runFixturePkgs(t, NewNoAlloc(), "noallocfix", "noalloclib")
}
