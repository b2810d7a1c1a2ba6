package regmutex_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"regmutex"
)

// The facade is what downstream users see; exercise the documented flow
// end to end: parse assembly, transform, simulate, inspect.
func TestFacadeEndToEnd(t *testing.T) {
	src := `
.kernel facade
.regs 24
.pregs 1
.threads 256
.grid 8
.global 65536

    mov.special r0, %tid
    mov.special r1, %ctaid
    imad r2, r1, 256, r0
    and r2, r2, 16383
    mov r3, 0
    mov r4, 6
top:
    ld.global r5, [r2+0]
    iadd r16, r5, 1
    iadd r17, r5, 2
    iadd r18, r5, 3
    iadd r19, r5, 4
    iadd r20, r5, 5
    iadd r21, r5, 6
    iadd r22, r5, 7
    iadd r23, r5, 8
    iadd r3, r3, r16
    iadd r3, r3, r17
    iadd r3, r3, r18
    iadd r3, r3, r19
    iadd r3, r3, r20
    iadd r3, r3, r21
    iadd r3, r3, r22
    iadd r3, r3, r23
    iadd r2, r2, 256
    and r2, r2, 16383
    isub r4, r4, 1
    setp.gt p0, r4, 0
    @p0 bra top
    imad r5, r1, 256, r0
    st.global [r5+32768], r3
    exit
`
	k, err := regmutex.ParseAsm(src)
	if err != nil {
		t.Fatal(err)
	}
	machine := regmutex.GTX480()
	machine.NumSMs = 2

	// Round trip through the formatter.
	if _, err := regmutex.ParseAsm(regmutex.FormatAsm(k)); err != nil {
		t.Fatalf("format round trip: %v", err)
	}

	occ := regmutex.Occupancy(machine, k)
	if occ.WarpsPerSM <= 0 {
		t.Fatalf("occupancy: %+v", occ)
	}

	res, err := regmutex.Transform(k, regmutex.Options{Config: machine})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := regmutex.Prepare(k)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		kernel *regmutex.Kernel
		pol    regmutex.Policy
	}{
		{"static", pre, regmutex.NewStaticPolicy(machine)},
		{"regmutex", res.Kernel, regmutex.NewRegMutexPolicy(machine)},
		{"paired", res.Kernel, regmutex.NewPairedPolicy(machine)},
		{"owf", pre, regmutex.NewOWFPolicy(machine, res.Split.Bs)},
		{"rfv", pre, regmutex.NewRFVPolicy(machine)},
	} {
		dev, err := regmutex.New(regmutex.DeviceSpec{Config: machine, Timing: regmutex.DefaultTiming(), Kernel: tc.kernel}, regmutex.WithPolicy(tc.pol))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		st, err := dev.Run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st.Cycles <= 0 || st.CTAs != k.GridCTAs {
			t.Errorf("%s: stats %+v", tc.name, st)
		}
	}
}

func TestFacadeBuilder(t *testing.T) {
	b := regmutex.NewBuilder("built", 8, 1, 64)
	b.MovSpecial(0, regmutex.SpecTID)
	b.Mov(1, regmutex.Imm(3))
	b.IAdd(2, regmutex.R(0), regmutex.R(1))
	b.Setp(0, regmutex.CmpLT, regmutex.R(2), regmutex.Imm(100))
	b.StGlobal(regmutex.R(0), 0, regmutex.R(2))
	b.Exit()
	k, err := b.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(regmutex.FormatAsm(k), "setp.lt p0, r2, 100") {
		t.Errorf("unexpected assembly:\n%s", regmutex.FormatAsm(k))
	}
}

func TestFacadeWorkloads(t *testing.T) {
	if got := len(regmutex.Workloads()); got != 16 {
		t.Fatalf("workloads = %d, want 16", got)
	}
	w, err := regmutex.WorkloadByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	if w.PaperBs != 18 {
		t.Errorf("bfs paper Bs = %d", w.PaperBs)
	}
}

// TestExamples builds the examples/ programs, the facade's documented
// callers, and runs each one: it must exit 0 and print its headline.
func TestExamples(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	bin := t.TempDir()
	if out, err := exec.Command(goBin, "build", "-o", bin, "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	cases := []struct{ name, want string }{
		{"coschedule", "transformed kernel refused"},
		{"halfregfile", "64 KB register file, RegMutex"},
		{"liveness", "split: base set"},
		{"occupancy", "baseline (Figure 2a)"},
		{"quickstart", "compiler picked |Bs|"},
	}
	if mains, _ := filepath.Glob("examples/*/main.go"); len(mains) != len(cases) {
		t.Fatalf("examples/ has %d programs, the table %d: add the new one", len(mains), len(cases))
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(filepath.Join(bin, tc.name)).CombinedOutput()
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("output lacks %q:\n%s", tc.want, out)
			}
		})
	}
}
