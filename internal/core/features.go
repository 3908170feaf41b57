package core

// Features toggle the reconstruction mechanisms this implementation adds
// on top of the paper's prose (documented at LLCClassifier). All are on
// by default; the ablation harness (internal/experiments/ablation.go,
// evaluate -fig ablation) disables them one at a time to quantify what each
// contributes — the per-design-choice evidence DESIGN.md promises.
type Features struct {
	// ParkOnBest: when exploration ends, settle on the lowest-unfairness
	// state observed instead of the last (possibly randomly perturbed)
	// one.
	ParkOnBest bool
	// ProfilePinning: an application the profiling phase measured as
	// Demand is never demoted to Supply by the absolute rate gates
	// (reconstruction note 1).
	ProfilePinning bool
	// HurtMemory: remember the allocation level a costly reclaim was
	// taken from and refuse to supply at or below it (note 2).
	HurtMemory bool
	// CumulativeGuard: exit Supply when reclaims that were individually
	// cheap add up to δ_P (note 3).
	CumulativeGuard bool
}

// DefaultFeatures enables every mechanism.
//
//copart:noalloc
func DefaultFeatures() Features {
	return Features{
		ParkOnBest:      true,
		ProfilePinning:  true,
		HurtMemory:      true,
		CumulativeGuard: true,
	}
}
