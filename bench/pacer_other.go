//go:build !linux

package main

import "time"

func lowerTimerSlack() {}

func preciseSleep(d time.Duration) { time.Sleep(d) }

func pinThread(int) {}
