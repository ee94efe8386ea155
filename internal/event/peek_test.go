package event

// peekTime returns the earliest pending event time, if any. It and
// stepIfBefore are test-only probes: the calendar suite drives them
// against its oracle to check next() without executing through Step.
func (q *Queue) peekTime() (Time, bool) {
	if q.pending == 0 {
		return 0, false
	}
	k, _ := q.next()
	return k.at, true
}

// stepIfBefore runs the earliest event only if it lies strictly before
// horizon, reporting whether one ran.
func (q *Queue) stepIfBefore(horizon Time) bool {
	if q.pending == 0 {
		return false
	}
	k, from := q.next()
	if k.at >= horizon {
		return false
	}
	q.exec(k, from)
	return true
}
