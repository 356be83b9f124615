package nic

import (
	"repro/internal/cycles"
	"repro/internal/sim"
)

// Source models the remote traffic-generator machine for receive-side
// tests. It is not a simulated CPU (the generator "runs with its IOMMU
// disabled" and is never the bottleneck, per the paper's methodology),
// but it respects three real limits:
//
//   - the shared 40 Gb/s wire,
//   - the receiver's posted-buffer credit (lossless TCP flow control), and
//   - its own syscall rate for small messages (paper footnote 6: "the
//     limiting factor is the sender's system call execution rate").
type Source struct {
	eng   *sim.Engine
	q     *Queue
	wire  *Wire
	costs *cycles.Costs

	msgSize  int
	mtu      int
	interval uint64 // min cycles between message starts (syscall cap)
	openLoop bool   // stream mode: always have a message to send
	payload  func(msgSeq, frameIdx int, b []byte)
	sizeFn   func(msgSeq int) int // optional per-message size override
	curSize  int                  // size of the in-progress message

	nextMsgAt   uint64
	msgSeq      int
	frameOffset int // bytes of the current message already sent
	pendingMsgs int // manual mode: messages queued by EnqueueMessage
	stopped     bool
	timerArmed  bool

	// Stats
	MessagesSent uint64
	FramesSent   uint64
	BytesSent    uint64

	scratch []byte

	// Frames on the wire, delivered in order: per source the delivery
	// times are monotonic (Wire.Reserve is), so they form one sim.Stream
	// and only the earliest sits in the engine's wake queue. A
	// credit-limited source can hold thousands of frames in flight.
	// Default-payload frames (zeros plus a 2-byte length header) carry
	// data == nil and are regenerated at delivery from deliverBuf;
	// materializing each one was once the largest item in the host heap
	// profile. Frames from a payload hook are copied into recycled
	// buffers.
	onWire     *sim.Stream[pendingFrame]
	free       [][]byte
	deliverBuf []byte // all-zero past byte 1; headers patched in place
	timerCb    func(now uint64)
}

// pendingFrame is one frame on the wire. data == nil means default
// payload, reconstructed at delivery time from ln alone.
type pendingFrame struct {
	ln   int
	data []byte
}

// NewSource creates a traffic source feeding queue q.
func NewSource(eng *sim.Engine, q *Queue, costs *cycles.Costs, msgSize, mtu int, openLoop bool) *Source {
	s := &Source{
		eng:      eng,
		q:        q,
		wire:     q.nic.rxWire,
		costs:    costs,
		msgSize:  msgSize,
		mtu:      mtu,
		openLoop: openLoop,
		scratch:  make([]byte, mtu),
	}
	if costs.RemoteSyscallsPerSec > 0 {
		s.interval = cycles.Hz / costs.RemoteSyscallsPerSec
	}
	s.onWire = sim.NewStream(eng, s.deliver)
	s.onWire.Reserve(q.RxRing.Size()) // credit caps the frames in flight
	s.timerCb = func(now uint64) {
		s.timerArmed = false
		s.pump(now)
	}
	q.SetCreditHook(func(now uint64) { s.pump(now) })
	return s
}

// SetPayload installs a payload generator (for firewall/attack scenarios).
func (s *Source) SetPayload(fn func(msgSeq, frameIdx int, b []byte)) { s.payload = fn }

// SetSizeFn installs a per-message size override (for mixed workloads such
// as memslap's GET/SET traffic).
func (s *Source) SetSizeFn(fn func(msgSeq int) int) { s.sizeFn = fn }

// Start begins open-loop transmission at time t.
func (s *Source) Start(t uint64) {
	s.nextMsgAt = t
	s.eng.Schedule(t, s.pump)
}

// Stop halts the source.
func (s *Source) Stop() { s.stopped = true }

// EnqueueMessage queues one message for manual (request/response) mode.
func (s *Source) EnqueueMessage(now uint64) {
	s.pendingMsgs++
	s.pump(now)
}

// pump advances the source state machine (engine context). It sends as
// many frames as wire+credit+rate allow, then either goes dormant (resumed
// by the credit hook) or re-arms a timer for the next permitted message.
func (s *Source) pump(now uint64) {
	if s.stopped {
		return
	}
	for {
		if s.frameOffset == 0 {
			// Need to start a new message.
			if !s.openLoop && s.pendingMsgs == 0 {
				return
			}
			if now < s.nextMsgAt {
				s.armTimer(s.nextMsgAt)
				return
			}
		}
		if s.q.RxCredits()-s.onWire.Len() <= 0 {
			return // receiver-limited; credit hook will resume us
		}
		if s.frameOffset == 0 {
			// Commit to the new message.
			if !s.openLoop {
				s.pendingMsgs--
			}
			s.curSize = s.msgSize
			if s.sizeFn != nil {
				s.curSize = s.sizeFn(s.msgSeq)
			}
			s.MessagesSent++
			next := s.nextMsgAt + s.interval
			if now > s.nextMsgAt {
				next = now + s.interval
			}
			s.nextMsgAt = next
		}
		frame := s.curSize - s.frameOffset
		if frame > s.mtu {
			frame = s.mtu
		}
		frameIdx := s.frameOffset / s.mtu
		seq := s.msgSeq
		s.frameOffset += frame
		if s.frameOffset >= s.curSize {
			s.frameOffset = 0
			s.msgSeq++
		}
		pf := pendingFrame{ln: frame}
		if s.payload != nil {
			// Hook-generated content must be captured at send time (the
			// hook may be stateful); copy it into a recycled buffer. The
			// bytes match a fresh allocation because copy overwrites the
			// whole slice.
			payload := s.scratch[:frame]
			s.payload(seq, frameIdx, payload)
			if n := len(s.free); n > 0 {
				pf.data = s.free[n-1][:frame]
				s.free = s.free[:n-1]
			} else {
				pf.data = make([]byte, frame, s.mtu)
			}
			copy(pf.data, payload)
		}
		end := s.wire.Reserve(now, frame) + s.costs.DMALatency
		s.FramesSent++
		s.BytesSent += uint64(frame)
		s.onWire.Schedule(end, pf)
	}
}

// deliver completes the oldest in-flight frame (engine context).
// DeliverFrame consumes the payload synchronously (the DMA write copies
// it into simulated memory), so buffers are shared/recycled immediately
// after.
func (s *Source) deliver(at uint64, pf pendingFrame) {
	data := pf.data
	if data == nil {
		// Default wire format: a 2-byte length header, standing in for
		// the IP total-length field that the paper's copying hint parses
		// (§5.4), over an all-zero body. deliverBuf is zero past byte 1
		// by construction, so only the header needs patching.
		if s.deliverBuf == nil {
			s.deliverBuf = make([]byte, s.mtu)
		}
		data = s.deliverBuf[:pf.ln]
		if pf.ln >= 2 {
			data[0] = byte(pf.ln >> 8)
			data[1] = byte(pf.ln)
		} else if pf.ln == 1 {
			data[0] = 0
		}
	}
	s.q.DeliverFrame(at, data)
	if pf.data != nil {
		s.free = append(s.free, pf.data[:cap(pf.data)])
	}
	s.pump(at)
}

func (s *Source) armTimer(at uint64) {
	if s.timerArmed {
		return
	}
	s.timerArmed = true
	s.eng.Schedule(at, s.timerCb)
}
