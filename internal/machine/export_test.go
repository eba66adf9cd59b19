package machine

import (
	"context"

	"repro/internal/lts"
)

// Test-only exports of the reference pilot (pilot_ref_test.go) for the
// differential test in package machine_test.
var (
	RefFindTauCycles           = refFindTauCycles
	RefValidateMutualExclusion = refValidateMutualExclusion
	RefValidateIndependence    = refValidateIndependence
)

// RefExplore runs the reference sequential explorer
// (explore_ref_test.go) with the same option handling as
// ExploreWithInfo: fresh alphabets when none are given, the default
// state budget, and a mis-shaped reduction artifact dropped. A fault in
// program code panics, as it always did there.
func RefExplore(p *Program, opt Options) (*lts.LTS, *Info, error) {
	if err := validateOptions(p, opt); err != nil {
		return nil, nil, err
	}
	limit := opt.MaxStates
	if limit <= 0 {
		limit = DefaultMaxStates
	}
	if opt.Acts == nil {
		opt.Acts = lts.NewAlphabet()
	}
	if opt.Labels == nil {
		opt.Labels = lts.NewAlphabet()
	}
	cdc, err := refNewCodec(p, opt)
	if err != nil {
		return nil, nil, err
	}
	if opt.Reduction != nil && !opt.Reduction.Matches(p) {
		opt.Reduction = nil
	}
	e := &refExplorer{
		ctx:  context.Background(),
		prog: p,
		opt:  opt,
		cdc:  cdc,
		ai:   newActionInterner(p, opt.Acts, opt.Labels),
		ids:  make(map[string]int32),
	}
	return e.run(limit)
}
