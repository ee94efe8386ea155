package collective

import (
	"hypercube/internal/core"
	"hypercube/internal/topology"
	"hypercube/internal/wormhole"
)

// Pool recycles the payload blocks and message records of the schedules.
// A send copies its payload into a block taken from the pool and the
// receiver returns the block once it has absorbed it, so a schedule's
// steady state allocates nothing per message. One Pool may serve every
// collective on one calendar: a traffic scenario shares one across its
// ops, whose rounds then reuse each other's blocks and records. It is not
// safe for concurrent use. The zero Pool is ready to use.
type Pool struct {
	blocks map[int][][]float64 // free blocks by length
	msgs   []*msg
}

// block returns a block of n elements with unspecified contents.
func (p *Pool) block(n int) []float64 {
	free := p.blocks[n]
	if k := len(free); k > 0 {
		p.blocks[n] = free[:k-1]
		return free[k-1]
	}
	return make([]float64, n)
}

// copyOf returns a pooled block holding a copy of src.
func (p *Pool) copyOf(src []float64) []float64 {
	b := p.block(len(src))
	copy(b, src)
	return b
}

// Recycle returns a block to the pool; the caller must not touch it again.
func (p *Pool) Recycle(b []float64) {
	if p.blocks == nil {
		p.blocks = make(map[int][][]float64)
	}
	p.blocks[len(b)] = append(p.blocks[len(b)], b)
}

// schedule is the receive side of a declared collective: receive hands
// node to its message tagged tag, with the payload (nil when the
// collective is timing-only), once the receive processing is over.
type schedule interface {
	receive(to topology.NodeID, tag int, data []float64)
}

// fanOut is a schedule whose nodes send several messages in a row: next
// issues node's send after the one tagged tag, if any. The executor calls
// it when the port model frees node's port: as the previous message is
// injected (all-port), or once its tail has arrived (one-port).
type fanOut interface {
	schedule
	next(node topology.NodeID, tag int)
}

// role names the node a delivery finishes, if any.
type role uint8

const (
	finishNone     role = iota
	finishSender        // a convergecast: sending is a node's last act
	finishReceiver      // a fan-out: a node is done once its data is in
)

// msg is one message of a schedule as a pre-bound event. It fires twice:
// when the sender's software startup ends it injects itself into the
// network, and the engine's receive charge after its tail arrives it
// hands its payload to the schedule. Its delivery callback is bound once,
// when the record is made, so neither the send, the delivery nor the
// receive allocates; records cycle through the engine's Pool.
type msg struct {
	e        *engine
	from, to topology.NodeID
	tag      int
	bytes    int
	data     []float64
	sent     bool // injected; the next firing is the receive
	deliver  func(wormhole.Delivery)
}

// send issues one message of bytes bytes from node from to node to after
// the software startup, carrying data (nil when timing-only); the
// schedule receives it the engine's receive charge after its tail
// arrives. The message owns data until the schedule receives it.
func (e *engine) send(from, to topology.NodeID, tag, bytes int, data []float64) {
	var m *msg
	if k := len(e.pool.msgs); k > 0 {
		m = e.pool.msgs[k-1]
		e.pool.msgs = e.pool.msgs[:k-1]
	} else {
		m = new(msg)
		m.deliver = m.delivered
	}
	m.e = e
	m.from, m.to, m.tag, m.bytes, m.data = from, to, tag, bytes, data
	m.sent = false
	e.q.AfterOp(e.p.TStartup, m)
}

// RunEvent injects the message or, once delivered, recycles the record
// and hands the payload to the schedule.
func (m *msg) RunEvent() {
	e := m.e
	if !m.sent {
		m.sent = true
		e.res.Messages++
		e.net.Send(m.from, m.to, m.bytes, m.deliver)
		if e.fan != nil && e.p.Port == core.AllPort {
			e.fan.next(m.from, m.tag)
		}
		return
	}
	to, tag, data := m.to, m.tag, m.data
	m.e, m.data = nil, nil
	e.pool.msgs = append(e.pool.msgs, m)
	e.sched.receive(to, tag, data)
}

// delivered is the bound tail-arrival callback: account the blocking,
// finish the node the schedule's role names, schedule the receive
// processing and, on a one-port fan-out, free the sender for its next
// send.
func (m *msg) delivered(d wormhole.Delivery) {
	e := m.e
	e.res.TotalBlocked += d.Blocked
	switch e.fin {
	case finishSender:
		e.finished(m.from, d.Arrived)
	case finishReceiver:
		e.finished(m.to, d.Arrived)
	}
	e.q.AfterOp(e.recv, m)
	if e.fan != nil && e.p.Port == core.OnePort {
		e.fan.next(m.from, m.tag)
	}
}
