package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// cpuSample is the machine-wide CPU time counters of /proc/stat, in
// clock ticks summed over all CPUs.
type cpuSample struct{ steal, total uint64 }

// sampleCPU reads the counters; it returns zeros where /proc/stat is
// missing, which makes every stolen share 0.
func sampleCPU() cpuSample {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuSample{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuSample{}
	}
	// cpu  user nice system idle iowait irq softirq steal guest guest_nice
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuSample{}
	}
	var s cpuSample
	for i, v := range fields[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cpuSample{}
		}
		s.total += n
		if i == 7 {
			s.steal = n
		}
	}
	return s
}

// stolenSince is the share of all CPU time since a that the hypervisor
// gave to other guests (steal time). The benchmark prints it on
// standard error next to the measured times, which it leaves as
// measured, so a run on a busy host can be told apart.
func stolenSince(a cpuSample) float64 {
	b := sampleCPU()
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
