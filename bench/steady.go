package main

import (
	"fmt"
	"os"
	"strings"
	"syscall"
	"time"
)

// The reference container is a guest with two virtual CPUs on an
// overcommitted host. The same single-threaded (H2O)3 BuildJK reads
// 53–55 ms for minutes, then for half a minute to more than a minute
// its median sits at 75–95 ms while a tenth of the builds still finish
// in 55–60 ms (neighbours on the sibling hyperthreads, in bursts shorter
// than a build), and now and then every build of a ten-second stretch
// takes 1.6× — with next to no steal time in /proc/stat, and without
// the short dependent loop of calibrate noticing. A whole-run median,
// or the median of any contiguous block of the run, lands on whichever
// mode that stretch met; ten runs of one commit then differ by a
// quarter and more, and did when the benchmark was first checked.
//
// What repeats is the pace the program holds when it is left alone, and
// single ops are short enough to be left alone even inside a disturbed
// stretch. So every workload drives ONE closed-loop stream of ops — one
// op in flight, so the wall and the process CPU between an op's start
// and its end belong to that op — and declares for each op a class of
// equal work (a request kind, a placement). The timing metrics are then
// taken per class from the quiet end of the class's distribution and
// put together by the classes' shares of the op list:
//
//	op_ms         = Σ_class share · (quietQ-quantile of the class's latencies)
//	cpu_ms_per_op = Σ_class share · (quietQ-quantile of the class's CPU per op)
//
// That is the mean op of the list at the pace of an undisturbed
// machine. It needs a twentieth of each class's ops, anywhere in the
// run, to have been left alone; it reads below a whole-run mean on a
// quiet machine too (the quiet end of a distribution is its fast end),
// by the same amount on every run; and every class moves it in
// proportion to its share of the time. What it cannot see is the slow tail inside
// a class: op_p90_ms and the per-layer p99s are there for that, as
// ungated whole-run figures.

// quietQ is the quantile of a class's distribution the timing metrics
// are read at: the lowest that still has seven ops below it in the
// smallest class of a gated workload (cold_fock's 140 scf ops). Ten
// runs beside a bursty single-threaded neighbour spread 7 % (quartile
// distance over median) on cold_fock read here, 9 % at the 10th
// percentile, 14 % at the 25th and 19 % at the median.
const quietQ = 0.05

// opSample is one completed op as its client saw it.
type opSample struct {
	class string
	latMS float64
	cpuMS float64 // process CPU (user+system) between the op's start and its end
}

// cpuNow returns the user+system CPU time of the process so far. Linux
// accounts it to the microsecond; the call costs under half of one.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the peak resident set of the process in MiB: VmHWM
// of /proc/self/status, the high-water mark of this program's own
// address space. (ru_maxrss will not do: across fork and exec Linux
// carries the parent's resident set into the child's ru_maxrss, so
// under `go run` a small workload reported the go command's 25–29 MiB.)
// Where /proc does not say, ru_maxrss it is.
func peakRSS() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			var kib float64
			if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kib); n == 1 {
				return kib / 1024
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // ru_maxrss is KiB on Linux
}

// stolen returns the CPU time the hypervisor has kept from this guest
// so far, summed over its CPUs (0 where /proc/stat does not say).
func stolen() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var user, nice, sys, idle, iowait, irq, softirq, steal int64
	if n, _ := fmt.Sscanf(string(b), "cpu %d %d %d %d %d %d %d %d",
		&user, &nice, &sys, &idle, &iowait, &irq, &softirq, &steal); n < 8 {
		return 0
	}
	return time.Duration(steal) * (time.Second / 100) // USER_HZ is 100 on Linux
}

// classStat is one class of ops in a run: its share of the op list and
// the ladder of its latency and CPU distributions. Kept in the result so
// that a reader can see how far the run's typical op was from its quiet
// one, class by class.
type classStat struct {
	Class string  `json:"class"`
	Ops   int     `json:"ops"`
	Share float64 `json:"share"`
	// the ladderQ quantiles
	LatMS [len(ladderQ)]float64 `json:"lat_ms"`
	CPUMS [len(ladderQ)]float64 `json:"cpu_ms"`
}

// ladderQ are the quantiles a classStat records; ladderQuiet indexes
// quietQ among them.
var ladderQ = [...]float64{0, 0.02, quietQ, 0.10, 0.25, 0.5, 0.9}

const ladderQuiet = 2

// steady holds the timing metrics of one pass and the per-class
// distributions they were read from.
type steady struct {
	opMS, cpuMSPerOp float64
	classes          []classStat
}

// steadyMetrics groups the completed ops by class (in order of first
// appearance) and reads the timing metrics from the quiet end of each
// class's distribution.
func steadyMetrics(ops []opSample) steady {
	var order []string
	lat, cpu := map[string][]float64{}, map[string][]float64{}
	for _, o := range ops {
		if _, seen := lat[o.class]; !seen {
			order = append(order, o.class)
		}
		lat[o.class] = append(lat[o.class], o.latMS)
		cpu[o.class] = append(cpu[o.class], o.cpuMS)
	}
	var st steady
	for _, c := range order {
		cs := classStat{Class: c, Ops: len(lat[c]), Share: float64(len(lat[c])) / float64(len(ops))}
		for i, q := range ladderQ {
			cs.LatMS[i] = quantile(lat[c], q)
			cs.CPUMS[i] = quantile(cpu[c], q)
		}
		st.opMS += cs.Share * cs.LatMS[ladderQuiet]
		st.cpuMSPerOp += cs.Share * cs.CPUMS[ladderQuiet]
		st.classes = append(st.classes, cs)
	}
	return st
}
