package machine

// Test-only exports of the reference pilot (pilot_ref_test.go) for the
// differential test in package machine_test.
var (
	RefFindTauCycles           = refFindTauCycles
	RefValidateMutualExclusion = refValidateMutualExclusion
	RefValidateIndependence    = refValidateIndependence
)
