package circuit

// The full-MNA reference, exported to the cell-level oracle tests of
// package circuit_test (kernel_oracle_test.go).
var (
	MNAOperatingPoint = mnaOperatingPoint
	MNASweep          = mnaSweep
	MNATransient      = mnaTransient
)
