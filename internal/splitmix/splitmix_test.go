package splitmix

import (
	"math/rand"
	"testing"
)

// TestReferenceVectors pins the generator to splitmix64's published
// output for seed 1234567 — every fleet digest and the machine's jitter
// stream hang off these words.
func TestReferenceVectors(t *testing.T) {
	var s Source
	s.Seed(1234567)
	for i, want := range []uint64{
		6457827717110365317, 3203168211198807973, 9817491932198370423,
		4593380528125082431, 16408922859458223821,
	} {
		if got := s.Uint64(); got != want {
			t.Fatalf("word %d = %d, want %d", i, got, want)
		}
	}
}

// TestStateResumes: the state word is the whole stream position, both
// for the source and for a rand.Rand drawing normals from it.
func TestStateResumes(t *testing.T) {
	var a, b Source
	a.Seed(-7)
	ra, rb := rand.New(&a), rand.New(&b)
	for i := 0; i < 100; i++ {
		ra.NormFloat64()
	}
	b.SetState(a.State())
	for i := 0; i < 100; i++ {
		if x, y := ra.NormFloat64(), rb.NormFloat64(); x != y {
			t.Fatalf("draw %d after resume: %v vs %v", i, x, y)
		}
	}
	a.Seed(-7)
	b.Seed(-7)
	if a.Int63() != b.Int63() || a.State() != b.State() {
		t.Fatal("reseeding a used source must equal seeding a fresh one")
	}
}
