package main

import (
	"cmp"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// How the benchmark keeps time steady on a shared machine.
//
// The machine this benchmark was built on (a 2-vCPU KVM guest) shares its
// cores with other tenants, and its speed swings by up to ±30% within
// minutes. Two effects make up the swing, and the benchmark corrects for
// both:
//
//   - Steal: the hypervisor runs another tenant on our core. While that
//     happens no code of ours runs. A one-client op is therefore timed
//     on its thread's CPU clock (CLOCK_THREAD_CPUTIME_ID), which is its
//     wall time minus steal, because the op runs on one goroutine locked
//     to one thread. Where several goroutines serve one op (serve-mix),
//     the op keeps its wall time, and each round of ops is scaled by the
//     steal the kernel counted during the round (/proc/stat), shared
//     over the cores the workload keeps busy.
//   - Contention: a busy neighbour on the same physical core slows
//     everything that runs on ours, an op and any fixed piece of generic
//     Go work alike. So the benchmark measures a reference unit (fixed
//     work that calls no repository code, below) on the thread CPU clock
//     after every one-client op and between rounds of a multi-client
//     loop. It then scales each op by refNominal / (reference unit time
//     around it).
//
// The reported times are therefore steal-free times at reference speed:
// the speed at which a reference unit takes refNominal. The unscaled
// figures are printed on the summary lines.
const (
	roundLen      = time.Second
	refNominal    = 2500 * time.Microsecond
	refUnitsEach  = 4 // reference units per runner between rounds
	refWorkItems  = 8000
	refInterpIter = 100000
	userHZ        = 100 // /proc/stat ticks per second (fixed by the Linux ABI)
)

type refRec struct{ a, b uint32 }

type refNode struct {
	next *refNode
	v    int
}

// refWork is one runner's reference state. All of it is allocated once,
// so a unit allocates nothing and never triggers the garbage collector.
type refWork struct {
	keys  []string
	m     map[string]int
	recs  []refRec
	nodes []refNode
	order []int
	sink  int
}

func newRefWork() *refWork {
	w := &refWork{
		m:     make(map[string]int, refWorkItems),
		recs:  make([]refRec, refWorkItems),
		nodes: make([]refNode, refWorkItems),
		order: permutation(refWorkItems, 0x5eed),
	}
	for i := 0; i < refWorkItems; i++ {
		w.keys = append(w.keys, "k"+strconv.Itoa(i*7919%100003))
	}
	return w
}

// unit runs one reference unit: map updates, a sort, pointer chasing
// in a shuffled order and a branchy interpreter loop.
func (w *refWork) unit() {
	clear(w.m)
	for i, k := range w.keys {
		w.m[k] += i
	}
	x := uint64(88172645463325252)
	for i := range w.recs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		w.recs[i] = refRec{uint32(x % 1000), uint32(i)}
	}
	slices.SortFunc(w.recs, func(p, q refRec) int {
		if c := cmp.Compare(p.a, q.a); c != 0 {
			return c
		}
		return cmp.Compare(p.b, q.b)
	})
	var head *refNode
	for _, i := range w.order {
		w.nodes[i] = refNode{next: head, v: i}
		head = &w.nodes[i]
	}
	s := 0
	for n := head; n != nil; n = n.next {
		s += n.v
	}
	prog := [8]int{0, 1, 2, 3, 1, 0, 2, 3}
	acc := 0
	for i := 0; i < refInterpIter; i++ {
		switch prog[(i+acc)&7] {
		case 0:
			acc += i
		case 1:
			acc ^= i << 1
		case 2:
			acc -= i >> 2
		default:
			acc = acc*3 + 1
		}
		acc &= 0xffff
	}
	w.sink += s + acc + len(w.m) + int(w.recs[0].b)
}

var (
	refOnce    sync.Once
	refRunners []*refWork
)

// refRunner returns runner r's reference state, allocating all of them
// on first use.
func refRunner(r int) *refWork {
	refOnce.Do(func() {
		for i := 0; i < procs(); i++ {
			refRunners = append(refRunners, newRefWork())
		}
	})
	return refRunners[r]
}

// refUnits runs n reference units on the calling goroutine and returns
// their mean time on its thread's CPU clock.
func refUnits(w *refWork, n int) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	for i := 0; i < n; i++ {
		w.unit()
	}
	return (threadCPU() - start) / time.Duration(n)
}

// refTime measures the machine's current speed: refUnitsEach reference
// units on each of `runners` goroutines at once (one per core the
// workload keeps busy), and the mean unit time.
func refTime(runners int) time.Duration {
	times := make([]time.Duration, runners)
	var wg sync.WaitGroup
	for r := 0; r < runners; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			times[r] = refUnits(refRunner(r), refUnitsEach)
		}(r)
	}
	wg.Wait()
	var sum time.Duration
	for _, t := range times {
		sum += t
	}
	return sum / time.Duration(runners)
}

// speedFactor turns the reference times measured before and after an
// interval into the factor that scales its time to reference speed.
func speedFactor(before, after time.Duration) float64 {
	return float64(refNominal) / (float64(before+after) / 2)
}

// threadCPU reads the calling thread's CPU clock.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	// CLOCK_THREAD_CPUTIME_ID; the call cannot fail for this clock.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// stealNow is the machine's total steal time so far, summed over its
// cores, or 0 where /proc/stat is unavailable.
func stealNow() time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHZ
}

// stealFree scales a wall interval during which `busy` cores worked to
// the part of it no tenant stole: the steal counted in it, shared over
// those cores, comes off. The factor never goes below one half, so a
// miscounted tick cannot swing a round.
func stealFree(wall, stolen time.Duration, busy int) float64 {
	if wall <= 0 {
		return 1
	}
	return max(0.5, 1-float64(stolen)/float64(busy)/float64(wall))
}

// timeSetup runs a workload's set-up and returns its steal-free time at
// reference speed, in seconds.
func timeSetup(clients int, setup func() (bench, error)) (bench, float64, error) {
	before := refTime(clients)
	s0 := stealNow()
	start := time.Now()
	b, err := setup()
	wall := time.Since(start)
	scale := stealFree(wall, stealNow()-s0, clients)
	return b, wall.Seconds() * scale * speedFactor(before, refTime(clients)), err
}
