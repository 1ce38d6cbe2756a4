package guard

// productionSites is the canonical fault-site registry: every site string
// passed to Inject or CorruptFloat from production (non-test) code, in
// evaluation order. doc.go documents each site's placement and blast
// radius; doc_test.go cross-checks this list against the tree, so a new
// injection point must be added here (and documented) to compile a green
// build. The store-damage fault table (dse.TestStoreDamageUnderFaults)
// must have a row for every site in this list, which
// dse.TestFaultTableCoversEverySite checks; that keeps the claim "every
// production fault site is exercised" checkable.
var productionSites = []string{
	"chip.build",
	"perfsim.simulate",
	"perfsim.layer",
	"perfsim.achieved_tops",
	"dse.candidate",
	"rstore.read",
	"rstore.write",
	"rstore.scan",
}

// Sites returns the canonical production fault-site registry as a fresh
// copy, in evaluation order.
func Sites() []string {
	out := make([]string, len(productionSites))
	copy(out, productionSites)
	return out
}
