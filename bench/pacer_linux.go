package main

import (
	"math/bits"
	"syscall"
	"time"
	"unsafe"
)

// prSetTimerSlack is PR_SET_TIMERSLACK from <linux/prctl.h>.
const prSetTimerSlack = 29

// lowerTimerSlack sets the calling thread's timer slack to 1ns. Linux
// otherwise lets a sleeping thread wake up to 50µs late, longer than a
// whole c3 round trip; the caller must stay locked to its thread.
func lowerTimerSlack() {
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

// preciseSleep blocks the thread in nanosleep: the Go timer wakes on a
// millisecond grid, too coarse to pace thousands of requests a second.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}

// pinThread binds the calling thread to the i-th CPU, modulo their
// number, of those the process may run on; the caller must stay locked
// to its thread. Left to the kernel, the pacer's threads settle on the
// CPUs in a way that holds for a whole process and doubles the c3
// latency in some processes and not in others; one connection's thread
// per CPU gives every process the same placement.
func pinThread(i int) {
	var mask [16]uint64 // 1024 CPUs, the kernel's default cpu_set_t
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return
	}
	n := 0
	for _, w := range mask {
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return
	}
	i %= n
	for word, w := range mask {
		for ; w != 0; w &= w - 1 {
			if i == 0 {
				var one [16]uint64
				one[word] = w & -w
				syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one)))
				return
			}
			i--
		}
	}
}
