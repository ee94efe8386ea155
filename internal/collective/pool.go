package collective

import (
	"hypercube/internal/event"
	"hypercube/internal/topology"
	"hypercube/internal/wormhole"
)

// Pool recycles the payload blocks and message records of the
// data-carrying schedules. A send copies its payload into a block taken
// from the pool and the receiver returns the block once it has absorbed
// it, so a schedule's steady state allocates nothing per message. One
// Pool may serve every data operation on one calendar: a traffic scenario
// shares one across its ops, whose rounds then reuse each other's blocks.
// It is not safe for concurrent use. The zero Pool is ready to use.
type Pool struct {
	blocks map[int][][]float64 // free blocks by length
	msgs   []*dataMsg
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

// receiver is a data schedule's receive side: receive hands node to the
// payload of its message tagged tag once the receive processing is over.
type receiver interface {
	receive(to topology.NodeID, tag int, data []float64)
}

// dataMsg is one payload message of a data schedule as a pre-bound event.
// It fires twice: when the sender's software startup ends it injects
// itself into the network, and TRecv plus the schedule's compute charge
// after its tail arrives it hands its payload to the receiver. Its
// delivery callback is bound once, when the record is made, so neither
// the send, the delivery nor the receive allocates; records cycle through
// the engine's Pool.
type dataMsg struct {
	e        *engine
	rx       receiver
	from, to topology.NodeID
	tag      int
	data     []float64
	recv     event.Time // TRecv + the schedule's compute charge
	// finishFrom makes the sender finish when the message is delivered
	// (the convergecast, where sending is a node's last act).
	finishFrom bool
	sent       bool // injected; the next firing is the receive
	deliver    func(wormhole.Delivery)
}

// sendData issues one payload message from node from to node to after the
// software startup, as a one-message sendSeq would: the wire size is the
// payload's ElemBytes per element, and rx.receive runs TRecv+tCompute after
// the tail arrives. The message owns data until rx receives it.
func (e *engine) sendData(rx receiver, from, to topology.NodeID, tag int, data []float64, tCompute event.Time, finishFrom bool) {
	var m *dataMsg
	if k := len(e.pool.msgs); k > 0 {
		m = e.pool.msgs[k-1]
		e.pool.msgs = e.pool.msgs[:k-1]
	} else {
		m = new(dataMsg)
		m.deliver = m.delivered
	}
	m.e, m.rx = e, rx
	m.from, m.to, m.tag, m.data = from, to, tag, data
	m.recv = e.p.TRecv + tCompute
	m.finishFrom, m.sent = finishFrom, false
	e.q.AfterOp(e.p.TStartup, m)
}

// RunEvent injects the message or, once delivered, recycles the record
// and hands the payload to the receiver.
func (m *dataMsg) RunEvent() {
	e := m.e
	if !m.sent {
		m.sent = true
		e.res.Messages++
		e.net.Send(m.from, m.to, len(m.data)*ElemBytes, m.deliver)
		return
	}
	rx, to, tag, data := m.rx, m.to, m.tag, m.data
	m.e, m.rx, m.data = nil, nil, nil
	e.pool.msgs = append(e.pool.msgs, m)
	rx.receive(to, tag, data)
}

// delivered is the bound tail-arrival callback: account the blocking,
// finish the sender where its send was its last act, and schedule the
// receive processing.
func (m *dataMsg) delivered(d wormhole.Delivery) {
	e := m.e
	e.res.TotalBlocked += d.Blocked
	if m.finishFrom {
		e.finished(m.from, d.Arrived)
	}
	e.q.AfterOp(m.recv, m)
}
