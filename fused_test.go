package parsearch

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// fusedOps names, one row per architecture on which gc fuses x*y + z
// into one instruction, the fused multiply-add instructions of that
// architecture's assembly listing (gc -S).
var fusedOps = []struct {
	goarch string
	ops    []string
}{
	{"arm64", []string{"FMADDD", "FMSUBD", "FNMADDD", "FNMSUBD", "FMADDS", "FMSUBS", "FNMADDS", "FNMSUBS"}},
	{"ppc64le", []string{"FMADD", "FMSUB", "FNMADD", "FNMSUB", "FMADDS", "FMSUBS", "FNMADDS", "FNMSUBS"}},
	{"s390x", []string{"FMADD", "FMSUB", "FNMADD", "FNMSUB", "FMADDS", "FMSUBS", "FNMADDS", "FNMSUBS"}},
	{"riscv64", []string{"FMADDD", "FMSUBD", "FNMADDD", "FNMSUBD", "FMADDS", "FMSUBS", "FNMADDS", "FNMSUBS"}},
	{"loong64", []string{"FMADDD", "FMSUBD", "FNMADDD", "FNMSUBD", "FMADDF", "FMSUBF", "FNMADDF", "FNMSUBF"}},
}

// TestNoFusedMultiplyAdd compiles the distance and MINDIST kernels
// (internal/slab, internal/vec) for every architecture on which gc
// fuses multiply-adds, and fails on any fused instruction in them. The
// Go spec lets a compiler compute x*y + z with one rounding; an
// explicit conversion, float64(d*d), forbids it. A fused sum differs in
// its last bits from amd64's, so the distances, tie-breaks and page
// counts of an arm64 index would not be amd64's. The cross-builds need
// only the local toolchain.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles five architectures")
	}
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goTool); err != nil {
		t.Skipf("no go command beside the toolchain: %v", err)
	}
	for _, row := range fusedOps {
		t.Run(row.goarch, func(t *testing.T) {
			cmd := exec.Command(goTool, "build", "-gcflags=-S", "./internal/slab", "./internal/vec")
			cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+row.goarch, "CGO_ENABLED=0")
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			listed := 0
			for _, line := range strings.Split(string(out), "\n") {
				// An instruction line: "\t0x0038 00056 (file.go:115)\tFMADDD\tF1, F0, F1, F0".
				fields := strings.Split(line, "\t")
				if len(fields) < 3 || !strings.HasPrefix(fields[1], "0x") {
					continue
				}
				listed++
				for _, op := range row.ops {
					if fields[2] == op {
						at := fields[1][strings.Index(fields[1], "(")+1 : len(fields[1])-1]
						t.Errorf("%s at %s: %s", op, at, strings.Join(fields[2:], " "))
					}
				}
			}
			if listed == 0 {
				t.Fatalf("no assembly listing in the build's output:\n%s", out)
			}
		})
	}
}
