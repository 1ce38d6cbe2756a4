package chip

// Test hooks for the external cached-value test: the unexported terms
// Build folds into TDPW and AreaMM2.
var (
	TDPParts       = (*Chip).tdpParts
	ModeledAreaUM2 = (*Chip).modeledAreaUM2
)

const TDPGuardband = tdpGuardband
