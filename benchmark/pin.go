package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// CPU pinning for the socket workloads. Generator and server take turns: one
// builds and sends a batch, the other executes it and replies. Where the
// kernel places the two decides the number more than the program does — on the
// 2-vCPU VM this was written on, kv_read runs at 420–470 Kops/s with both on
// one CPU, at 165 Kops/s with one on each (every wake-up is then an
// inter-processor interrupt the hypervisor has to deliver), and anywhere in
// between when the scheduler is left to wander. So both are held on one CPU,
// and what is measured is the length of the path through generator and
// server, strictly in turn.

// cpuMask is a sched_setaffinity mask of up to 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) call(trap uintptr, tid int) error {
	_, _, e := syscall.RawSyscall(trap, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

// setAll applies m to every thread of this process. A thread made while the
// list is read inherits the mask of its maker, so the passes repeat until one
// finds no thread it has not already set.
func (m *cpuMask) setAll() error {
	done := map[int]bool{}
	for fresh := true; fresh; {
		fresh = false
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil || done[tid] {
				continue
			}
			done[tid], fresh = true, true
			// ESRCH: the thread ended between the listing and the call.
			if err := m.call(syscall.SYS_SCHED_SETAFFINITY, tid); err != nil && err != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, err)
			}
		}
	}
	return nil
}

// pinToOneCPU holds every thread of this process, and so every child it
// starts from now on, on the highest-numbered CPU it may use (device
// interrupts are served by the lowest), with one P to match, and returns the
// CPU's number. The returned function undoes both.
func pinToOneCPU() (cpu int, restore func(), err error) {
	var allowed cpuMask
	if err := allowed.call(syscall.SYS_SCHED_GETAFFINITY, 0); err != nil {
		return 0, nil, fmt.Errorf("sched_getaffinity: %w", err)
	}
	cpu = len(allowed)*64 - 1
	for allowed[cpu/64]&(1<<(cpu%64)) == 0 {
		cpu-- // the calling thread runs somewhere: the mask is not empty
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	if err := one.setAll(); err != nil {
		return 0, nil, err
	}
	procs := runtime.GOMAXPROCS(1)
	return cpu, func() {
		runtime.GOMAXPROCS(procs)
		if err := allowed.setAll(); err != nil {
			panic(err) // the mask was this process's own a moment ago
		}
	}, nil
}

// pin is pinToOneCPU for a run: it records the CPU in the run's document.
// Where the kernel refuses (a sandbox that filters the call), the run goes on
// unpinned and says so, rather than not at all.
func (r *run) pin() (restore func()) {
	cpu, restore, err := pinToOneCPU()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: not pinned, numbers will wander with the scheduler:", err)
		r.doc.Env["pinned_cpu"] = "none"
		return func() {}
	}
	r.doc.Env["pinned_cpu"] = strconv.Itoa(cpu)
	return restore
}
