package analysis

// Default returns the analyzer suite with the repo's production
// scopes — what cmd/copartlint and CI run on every build.
func Default() []*Analyzer {
	return []*Analyzer{
		NewDeterminism(DefaultDeterministicPackages...),
		NewNoAlloc(),
		NewDirectives(),
		NewFloatCmp(DefaultScoringPackages...),
	}
}
