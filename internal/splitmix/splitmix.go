// Package splitmix is splitmix64 as a math/rand source whose entire
// state is one word. It backs the fleet's per-node RNG (mix composition,
// exploration jitter) and the simulated machine's measurement-jitter
// stream.
package splitmix

// Source is a splitmix64 rand.Source64. math/rand's default
// lagged-Fibonacci source pays a ~10µs 607-word scramble (and a 4.9 KB
// allocation) on every seed — per fleet *node* that was 18% of a
// Fleet256 period sweep, per noisy machine launch 20% of a noisy fleet
// run — while a Source seeds by storing one word, embeds by value, and
// snapshots as that word. Determinism only requires that equal seeds
// yield equal streams, which holds trivially; reseeding a retained
// Source is exactly equivalent to constructing a fresh one, the property
// the runtime pool's exactness contract and Machine.Reset need.
//
// WARNING: derive the seeds of streams that must be independent by
// hashing (e.g. one Uint64 draw of a parent Source per child), never by
// striding. Seed s+k·0x9e3779b97f4a7c15 is seed s's stream shifted by k
// draws, because that constant is the generator's own Weyl increment.
type Source struct {
	state uint64
}

// Seed resets the stream to the canonical position for seed.
//
//copart:noalloc
func (s *Source) Seed(seed int64) { s.state = uint64(seed) }

// State returns the stream position, the source's whole state.
//
//copart:noalloc
func (s *Source) State() uint64 { return s.state }

// SetState resumes the stream at a position State returned.
//
//copart:noalloc
func (s *Source) SetState(state uint64) { s.state = state }

// Uint64 returns the next stream word (splitmix64 finalizer over a
// Weyl sequence).
//
//copart:noalloc
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 satisfies rand.Source for consumers that do not use Source64.
//
//copart:noalloc
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }
