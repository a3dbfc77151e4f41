package vtime

// UseHeapTimers makes every kernel constructed until restore is called keep
// its timers in the reference heap, which is how the equivalence suite
// (package vtime_test) runs whole grids — built layers away, by dst.Run or
// a study — on it. It is package state: no kernel that is meant for the
// wheel may be under construction meanwhile, so a test that calls it is not
// parallel and restores before it lets anything else build one.
func UseHeapTimers() (restore func()) {
	prev := newTimerQueue
	newTimerQueue = func() timerQueue { return newHeapQueue() }
	return func() { newTimerQueue = prev }
}
