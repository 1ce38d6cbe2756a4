package perfsim

// CheckMatchesOracle and ManyShapes let the external perfsim_test package,
// whose tests import dse for the Table I candidates, run
// checkMatchesOracle on manyShapes too.
var (
	CheckMatchesOracle = checkMatchesOracle
	ManyShapes         = manyShapes
)
