package main

import (
	"errors"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// envBlock records what a run's numbers were produced on, so a
// disturbed or foreign set of runs can be recognised from its own
// output.
type envBlock struct {
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Kernel     string   `json:"kernel"`
	Commit     string   `json:"commit"`
	Seed       int64    `json:"seed"`
	Seconds    int      `json:"seconds"`
	Objects    int      `json:"objects"`
	Flags      []string `json:"server_flags"`
}

func captureEnv(root string, seed int64, seconds, objects int, flags []string) envBlock {
	e := envBlock{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
		Seed:       seed,
		Seconds:    seconds,
		Objects:    objects,
		Flags:      flags,
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(raw))
	}
	// The driver's checkout is not a git repository; the commit is
	// recorded where there is one.
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// calibSink keeps the reference loop's result alive.
var calibSink uint64

// calibrate times a fixed pure-CPU loop (xorshift over a register, no
// memory traffic) and returns milliseconds. Run before and after every
// pass, it says how fast the host's CPU was for the harness at that
// moment, independently of the program under test.
func calibrate() float64 {
	const iters = 4_000_000
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(start)
	calibSink += x
	return float64(d) / float64(time.Millisecond)
}

// cpuTimes is the host-wide first line of /proc/stat, in ticks.
type cpuTimes struct {
	total, steal uint64
}

func readCPUTimes() (cpuTimes, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, errors.New("malformed /proc/stat")
	}
	var ct cpuTimes
	// user nice system idle iowait irq softirq steal: guest time is
	// already inside user.
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTimes{}, err
		}
		ct.total += v
		if i == 7 {
			ct.steal = v
		}
	}
	return ct, nil
}

// stealShare is the share of host CPU time between two readings that
// the hypervisor gave to someone else.
func stealShare(before, after cpuTimes) float64 {
	if after.total <= before.total {
		return 0
	}
	return float64(after.steal-before.steal) / float64(after.total-before.total)
}
