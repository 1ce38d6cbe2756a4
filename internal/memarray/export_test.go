package memarray

// GoldenConfigs exposes the golden grid to the external oracle test.
var GoldenConfigs = goldenConfigs
