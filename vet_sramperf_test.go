package sramco

import (
	"os"
	"os/exec"
	"testing"
)

// TestSramperfModuleVets runs make vet-sramperf's vet step, go vet ./... in
// sramperf/ with -mod=readonly. The benchmark is a module of its own, which
// ./... of this module does not reach, so without this test a change that
// removes or reshapes an API the benchmark imports would pass go test ./...
// and fail only when the benchmark is built. Skipped under -short and where
// no go binary is on PATH.
func TestSramperfModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("vetting the benchmark module builds it; skipped in -short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go binary to vet the benchmark module with: %v", err)
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "sramperf"
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=readonly")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in sramperf/: %v\n%s", err, out)
	}
}
