package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuStat is the aggregate line of /proc/stat: total and steal jiffies.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuStat{}
	}
	fields := strings.Fields(sc.Text()) // "cpu user nice system idle iowait irq softirq steal ..."
	var s cpuStat
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseUint(fields[i], 10, 64)
		s.total += v
		if i == 8 {
			s.steal = v
		}
	}
	return s
}

// stealShare is the share of all CPU time the hypervisor stole between
// two readings.
func stealShare(a, b cpuStat) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}

// rssMB returns the process's current resident set in MiB.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm") // "size resident shared ..." in pages
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// sampleRSS samples rssMB every interval until stop is closed, then
// returns the samples.
func sampleRSS(interval time.Duration, stop <-chan struct{}) []float64 {
	var out []float64
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		out = append(out, rssMB())
		select {
		case <-stop:
			return out
		case <-t.C:
		}
	}
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
