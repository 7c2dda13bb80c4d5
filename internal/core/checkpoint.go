package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/kvbuf"
	"ftmrmpi/internal/metrics"
	"ftmrmpi/internal/obs"
	"ftmrmpi/internal/storage"
	"ftmrmpi/internal/vtime"
)

// Checkpoint streams (paper §4.1). Each map task and each reduce partition
// has an append-only stream of frames. Frames are written to the node-local
// disk and drained to the PFS by a background copier thread (§4.1.3), or
// written directly to the PFS (LocDirectPFS). Only bytes that reached the
// PFS before a failure are recoverable — whatever was still local when the
// process died is lost and must be reprocessed.

// Frame kinds.
const (
	frameMapDelta byte = 1 // a=taskID, b=endRecord; payload = KV delta (record granularity)
	frameTaskDone byte = 2 // a=taskID, b=totalRecords; payload = full task KV (chunk granularity) or empty
	frameShuffle  byte = 3 // a=partition; payload = post-shuffle KV for the partition
	// Kind 4 is reserved: it was set aside for a converted-partition snapshot
	// that nothing ever wrote (recovery re-converts from the shuffle
	// snapshot), and the decoder refuses it.
	frameReduce byte = 5 // a=partition, b=groups committed; payload = 8-byte output length
)

// frame is one decoded checkpoint frame.
type frame struct {
	kind    byte
	a, b    uint32
	payload []byte
}

// frameHdrLen is the fixed wire header size:
// [kind u8][a u32][b u32][len u32][crc u32]. Frames are the checkpoint
// streams' format, where bytes meet storage faults; a shuffle route carries
// no frame, but is priced at the length of the frames that would carry its
// runs (sendBundles).
const frameHdrLen = 17

// maxFramePayload bounds a declared payload length. Nothing legitimate comes
// close (the largest frames carry one partition's KV); a length beyond this
// is garbage even if the stream happens to be long enough to satisfy it.
const maxFramePayload = 1 << 30

// putFrameHeader writes into hdr, frameHdrLen bytes, the header of a frame
// whose payload is the concatenation of the pieces given (a map task's delta
// is views of the map-output log): [kind u8][a u32][b u32][len u32][crc u32],
// where crc is CRC-32 (IEEE) over the first 13 header bytes followed by the
// payload — so a bit flip anywhere in the frame (including the length or the
// CRC field itself) is detectable at read time. It is the one header writer.
// The frame's wire form is the header followed by the payload; commit hands
// the pieces on as they are.
func putFrameHeader(hdr []byte, kind byte, a, b uint32, payload ...[]byte) {
	n := 0
	for _, p := range payload {
		n += len(p)
	}
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:5], a)
	binary.LittleEndian.PutUint32(hdr[5:9], b)
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(n))
	crc := crc32.ChecksumIEEE(hdr[:13])
	for _, p := range payload {
		crc = crc32.Update(crc, crc32.IEEETable, p)
	}
	binary.LittleEndian.PutUint32(hdr[13:17], crc)
}

// nextFrame checks and decodes the frame at the head of rest in place (the
// payload aliases rest, capped at its length) and returns it with the bytes
// it occupies. It is the one frame decoder: a non-nil error names what is
// wrong with the head — a torn tail, a corrupted frame, or garbage — and the
// walking caller adds where (frameErr).
func nextFrame(rest []byte) (frame, int, error) {
	if len(rest) < frameHdrLen {
		return frame{}, 0, fmt.Errorf("short header (%d of %d bytes)", len(rest), frameHdrLen)
	}
	switch kind := rest[0]; kind {
	case frameMapDelta, frameTaskDone, frameShuffle, frameReduce:
	default:
		return frame{}, 0, fmt.Errorf("bad kind %d", kind)
	}
	l := int(binary.LittleEndian.Uint32(rest[9:13]))
	if l > maxFramePayload {
		return frame{}, 0, fmt.Errorf("implausible payload length %d", l)
	}
	n := frameHdrLen + l
	if len(rest) < n {
		return frame{}, 0, fmt.Errorf("truncated payload (%d of %d bytes)", len(rest)-frameHdrLen, l)
	}
	want := binary.LittleEndian.Uint32(rest[13:17])
	crc := crc32.ChecksumIEEE(rest[:13])
	crc = crc32.Update(crc, crc32.IEEETable, rest[frameHdrLen:n])
	if crc != want {
		return frame{}, 0, fmt.Errorf("CRC mismatch (got %08x, want %08x)", crc, want)
	}
	return frame{
		kind:    rest[0],
		a:       binary.LittleEndian.Uint32(rest[1:5]),
		b:       binary.LittleEndian.Uint32(rest[5:9]),
		payload: rest[frameHdrLen:n:n],
	}, n, nil
}

// frameErr places a nextFrame error: the idx-th frame of a stream, at byte
// offset off.
func frameErr(idx, off int, err error) error {
	return fmt.Errorf("core: frame %d at offset %d: %w", idx, off, err)
}

// decodeFramesPrefix parses the longest valid frame prefix of data,
// returning the decoded frames, the number of bytes they occupy, and a
// non-nil error describing the first invalid byte range (if any): trailing
// bytes that do not form a complete, checksummed frame. WAL semantics: the
// returned frames are usable even when err != nil. Callers that only walk a
// stream loop over nextFrame instead.
func decodeFramesPrefix(data []byte) ([]frame, int, error) {
	var out []frame
	off := 0
	for off < len(data) {
		f, n, err := nextFrame(data[off:])
		if err != nil {
			return out, off, frameErr(len(out), off, err)
		}
		out = append(out, f)
		off += n
	}
	return out, off, nil
}

// countFrames returns the number of valid frames in a stream.
func countFrames(data []byte) int {
	count := 0
	for off := 0; off < len(data); count++ {
		_, n, err := nextFrame(data[off:])
		if err != nil {
			break
		}
		off += n
	}
	return count
}

// ckptPath returns the PFS/local-relative path of a stream.
func ckptPath(jobID, stream string) string { return "ckpt/" + jobID + "/" + stream }

func mapStream(taskID int) string    { return fmt.Sprintf("map/t%06d", taskID) }
func partStream(part int) string     { return fmt.Sprintf("part/p%06d", part) }
func doneMarker(jobID string) string { return "ckpt/" + jobID + "/DONE" }

// copierCPUPerByte is the copier thread's CPU cost to move one byte
// (memcpy + syscall overhead), charged against the rank's core so the
// copier genuinely competes with the main thread (Figure 7: ~3% CPU).
const copierCPUPerByte = 1e-8

// copyReq asks the copier to drain a stream up to its current local length.
type copyReq struct {
	stream string
	// drain, when non-nil, is a drain barrier: the copier sets *drainDone
	// and wakes the process once everything enqueued earlier has copied.
	drain     *vtime.Proc
	drainDone *bool
}

// ckptStore is one rank's checkpoint library (§4.1): it commits frames to the
// rank's streams, runs the copier thread that drains them from the node-local
// disk to the PFS (§4.1.3), and replays streams during recovery.
//
// A stream's node-local file belongs to the store that writes it. Every rank
// on a node shares one local disk, and a rank's files outlive its process, so
// the file at a stream's path may hold a dead rank's frames (the task's
// previous owner on this node, or this rank's own aborted attempt), of which
// some already reached the PFS. The store's first commit to a stream, where
// its drain cursor starts at 0, therefore empties the file: a PFS stream is
// only ever extended by frames its current writer committed.
type ckptStore struct {
	enabled  bool
	jobID    string
	loc      Location
	prefetch bool // replay from one bulk PFS read, charged as staged on the local disk (§5.1)
	local    *storage.Tier
	pfs      *storage.Tier
	m        *RankMetrics
	obs      *obs.Handle // owning rank's handle; copier events land on its copier track
	agent    *lbAgent    // fed phase-boundary drain stalls (trace LB model)
	rep      *replicator // nil when the in-memory replica tier is disabled
	// hdr and pieces are commit's, reused by every frame: the header, and the
	// frame as [hdr, payload...] with the payload's pieces by reference.
	hdr    [frameHdrLen]byte
	pieces [][]byte

	// The copier thread, when frames go through the local disk (proc is nil
	// otherwise). It shares the CPU core with the rank's main thread.
	cpu     *vtime.Bandwidth
	q       *vtime.Queue
	proc    *vtime.Proc
	copied  map[string]int // stream -> bytes of the local file durable on the PFS
	stopped bool

	// named and namedPath are the stream the store named last and its path
	// (see path).
	named, namedPath string
}

// path returns the path of a stream. A task commits to its stream, and the
// copier drains it, many times in a row, so the store keeps the last
// stream's path instead of joining it again for each frame.
func (s *ckptStore) path(stream string) string {
	if stream != s.named {
		s.named, s.namedPath = stream, ckptPath(s.jobID, stream)
	}
	return s.namedPath
}

// newCkptStore builds the checkpoint store of one world rank for spec, and
// starts its copier thread when frames go through the local disk. Shadows
// start with writes disabled but may be promoted mid-job, so the copier is
// started whenever the model checkpoints at all.
func newCkptStore(clus *cluster.Cluster, rank int, spec Spec, m *RankMetrics, h *obs.Handle) *ckptStore {
	s := &ckptStore{
		enabled:  spec.Model.Checkpointing(),
		jobID:    spec.JobID,
		loc:      spec.CkptLocation,
		prefetch: spec.Prefetch,
		local:    clus.LocalOf(rank),
		pfs:      clus.PFS,
		m:        m,
		obs:      h,
	}
	if s.enabled && s.loc == LocLocalCopier {
		s.cpu = clus.CoreOf(rank)
		s.q = vtime.NewQueue(clus.Sim)
		s.copied = make(map[string]int)
		s.proc = clus.Sim.Spawn(fmt.Sprintf("copier-r%d-%s", rank, spec.JobID), s.loop)
	}
	return s
}

// loop is the copier thread.
func (s *ckptStore) loop(p *vtime.Proc) {
	for {
		item := s.q.Recv(p)
		// Coalesce the backlog: when the PFS is slow the queue grows, and
		// draining it in one sweep turns many small frames into few large
		// appends — the aggregation §4.1.3 relies on.
		reqs := []copyReq{item.(copyReq)}
		for {
			it, ok := s.q.TryRecv()
			if !ok {
				break
			}
			reqs = append(reqs, it.(copyReq))
		}
		stop := false
		var streams []string
		seen := make(map[string]bool)
		var drains []copyReq
		for _, req := range reqs {
			switch {
			case req.drain != nil:
				drains = append(drains, req)
			case req.stream == "":
				stop = true
			default:
				if !seen[req.stream] {
					seen[req.stream] = true
					streams = append(streams, req.stream)
				}
			}
		}
		for _, st := range streams {
			s.copyStream(p, st)
		}
		for _, d := range drains {
			*d.drainDone = true
			p.Sim().Wake(d.drain)
		}
		if stop {
			s.stopped = true
			return
		}
	}
}

// copyStream drains the not-yet-copied suffix of a stream to the PFS as one
// aggregated write (the whole point of the copier: few large PFS ops
// instead of many small ones). The suffix moves as a storage.Run: the PFS
// stream shares the local stream's extents, and the host copies no byte of
// what the model charges as read, copied and written.
func (s *ckptStore) copyStream(p *vtime.Proc, stream string) {
	path := s.path(stream)
	total := s.local.Size(path)
	have := s.copied[stream]
	if total <= have {
		return
	}
	delta, err := s.local.PeekRun(path, have)
	if err != nil {
		return
	}
	n := delta.Len()
	s.obs.Rec.CopierBegin(stream, n)
	// Read only the new suffix from the local disk.
	s.m.CopierIO += s.local.Charge(p, 1, n)
	// CPU for the copy path (shared with the main thread on this core).
	cpuSec := float64(n) * copierCPUPerByte
	t0 := p.Now()
	s.cpu.Acquire(p, cpuSec)
	s.m.CPUCopier += p.Now() - t0
	// A torn PFS append would leave a partial frame at the durable tail, so
	// the drained stream is only ever extended by whole deltas.
	d, err := appendRollback(p, s.pfs, path, ckptAppendBudget, false, func() (time.Duration, error) {
		return s.pfs.AppendRun(p, path, delta, 1)
	})
	s.m.CopierIO += d
	if err != nil {
		// Give up on this delta (clean rollback, no durability advance); a
		// later drain of the stream retries the whole suffix.
		s.obs.Rec.CopierEnd(stream, n)
		return
	}
	s.copied[stream] = total
	s.obs.Rec.CopierDrain(stream, n)
	s.obs.Rec.CopierEnd(stream, n)
}

// drainWait blocks the caller until every previously enqueued copy has
// completed (the phase-end consistency point, §4.1.1).
func (s *ckptStore) drainWait(p *vtime.Proc) {
	if s.stopped || s.proc.Dead() {
		return
	}
	done := false
	s.q.Send(copyReq{drain: p, drainDone: &done})
	for !done && !s.proc.Dead() {
		p.Park()
	}
}

// stop terminates the copier, if any, after outstanding work.
func (s *ckptStore) stop() {
	if s.proc != nil && !s.stopped {
		s.q.Send(copyReq{stream: ""})
	}
}

// commit writes one frame to the stream without copying its payload: the
// header goes into the store's one header buffer, and the frame goes on as
// the pieces [hdr, payload...]. The payload is write-once bytes (kvbuf.Log
// pieces, a kvbuf.KV's Bytes), so the stream's file may keep its long pieces
// by reference (storage.Tier.AppendShared); everything that keeps a short
// piece — the header among them — copies it: the file, and
// replicaStore.appendOwn into the mirror (TestCommittedFramesOutliveTheirSource).
// A replica push sends a view of that mirror, whose written bytes are never
// rewritten (replicaEntry), so the partner reads the frame as committed even
// while the push waits in its mailbox (TestBankedPushOutlivesMirrorRewrites).
func (s *ckptStore) commit(p *vtime.Proc, stream string, kind byte, a, b uint32, payload ...[]byte) {
	putFrameHeader(s.hdr[:], kind, a, b, payload...)
	s.pieces = append(append(s.pieces[:0], s.hdr[:]), payload...)
	s.write(p, stream, s.pieces...)
	clear(s.pieces) // keep no payload alive between commits
}

// write appends one frame, given as pieces of write-once bytes, to a stream,
// charging one small operation at the configured location and the I/O wait
// to the main thread. If the append keeps tearing, the frame is dropped
// cleanly: reduced checkpoint coverage, never a corrupt stream.
func (s *ckptStore) write(p *vtime.Proc, stream string, pieces ...[]byte) {
	n := 0
	for _, pc := range pieces {
		n += len(pc)
	}
	if !s.enabled || n == 0 {
		return
	}
	path := s.path(stream)
	s.m.CkptFrames++
	s.m.CkptBytes += int64(n)
	s.obs.Rec.CkptCommit(stream, n, 1)
	// Direct to PFS, every frame is a distinct small operation against the
	// shared file system (§4.1.3's slow path); the local disk absorbs them
	// and the copier drains the stream in few large appends.
	viaCopier := s.loc == LocLocalCopier
	tier := s.pfs
	if viaCopier {
		tier = s.local
		if _, ok := s.copied[stream]; !ok {
			// This store's first commit to the stream: what the file holds
			// was left by a dead process and is not this store's to drain.
			s.copied[stream] = 0
			s.local.Truncate(path, 0)
		}
	}
	d, _ := appendRollback(p, tier, path, ckptAppendBudget, false, func() (time.Duration, error) {
		return tier.AppendShared(p, path, pieces, 1)
	})
	s.m.IOWait += d
	s.obs.CkptStall("write", d)
	if viaCopier && !s.stopped {
		s.q.Send(copyReq{stream: stream})
	}
	// Push the freshly committed frame bytes into the in-memory replica tier
	// (when enabled). The pushed bytes are the pre-injection originals —
	// replica copies are clean by construction, which is why the restore chain
	// may prefer them over a possibly-corrupt durable copy. Pushed even when
	// the durable append was dropped after retries: the RAM tier failing
	// independently of the disk tiers is the point.
	if s.rep != nil {
		s.rep.push(stream, pieces...)
	}
}

// phaseSync waits for the copier to drain (checkpoint consistency point at
// the end of each phase, §4.1.1).
func (s *ckptStore) phaseSync(p *vtime.Proc) {
	if s.enabled && s.proc != nil {
		t0 := p.Now()
		s.obs.Probe.EnterDrain()
		s.drainWait(p)
		s.obs.Probe.ExitDrain()
		d := p.Now() - t0
		s.m.IOWait += d
		s.obs.CkptStall("drain", d)
		if s.agent != nil {
			s.agent.noteStall(d)
		}
	}
}

// holder is one link of the restore chain: a place a checkpoint stream can
// outlive the rank that wrote it.
type holder interface {
	// private reports that the other survivors cannot see what it holds.
	private() bool
	// peek returns the stream as held, free of charge; nil when it is not.
	peek(p *vtime.Proc, stream string) []byte
	// restore reads the stream the way a recovery pays for it and repairs a
	// damaged tail. ok is false when there is nothing to replay and the next
	// holder must be asked; valid is the byte prefix the frames decode from
	// and source the holder's recovery.source label.
	restore(p *vtime.Proc, stream string) (frames []frame, valid []byte, source string, ok bool)
}

// chain returns the restore chain, and is the one place its order is
// written: the rank's replica store when the replica tier is on — its own
// mirror of the stream ("replica-local"), else the frames a peer pushed
// ("replica-peer"); both RAM, no storage charge, clean by construction —
// then the PFS ("pfs"); a stream no holder has is re-executed. This is
// ReStore's "ask the next holder" (PAPERS.md). load, holdsSnapshot and
// needRemapAgreed walk it, so what a restore reads, what counts as restorable
// and whether ranks can disagree about that never drift apart.
func (s *ckptStore) chain() []holder {
	if s.rep == nil {
		return []holder{pfsCopy{s}}
	}
	return []holder{s.rep.store, pfsCopy{s}}
}

// load returns the decoded frames of a stream from the first holder of the
// restore chain that has any, charging recovery I/O; nil when none does.
func (s *ckptStore) load(p *vtime.Proc, stream string) []frame {
	// Whatever this call adds to the load-checkpoint bucket — staging charges,
	// retries, per-frame replay charges — is attributed as one stage event,
	// keeping event sums equal to the hand-kept counter.
	pre := s.m.Recovery.LoadCkpt
	defer func() { s.obs.Rec.RecoveryStage("load", s.m.Recovery.LoadCkpt-pre) }()
	for _, h := range s.chain() {
		frames, valid, source, ok := h.restore(p, stream)
		if !ok {
			continue
		}
		s.m.RecoveredBytes += int64(len(valid))
		s.m.RecoveredFrames += int64(len(frames))
		s.obs.RecoveryRead(stream, source, len(valid), len(frames))
		if s.rep != nil {
			// The rank that replayed a stream owns it from here on: seed its
			// replica mirror.
			s.rep.store.adopt(stream, valid)
		}
		return frames
	}
	return nil
}

// holdsSnapshot reports whether the stream of a partition holds a decodable
// post-shuffle snapshot anywhere load would read it from. Mere existence of
// the stream is not enough once streams can be torn or corrupted:
// work-conserving adoption of a partition whose snapshot frame was lost would
// silently drop its data.
func (s *ckptStore) holdsSnapshot(p *vtime.Proc, stream string) bool {
	return slices.ContainsFunc(s.chain(), func(h holder) bool { return shuffleSnapshotIn(h.peek(p, stream)) })
}

// The replica store as a holder: rank-private RAM. Replica bytes carry no
// storage charge (they are already in the reader's memory; the network cost
// was paid when they were pushed), which is exactly the recovery-time win the
// abl-restore ablation measures.

func (s *replicaStore) private() bool { return true }

func (s *replicaStore) peek(_ *vtime.Proc, stream string) []byte {
	data, _ := s.lookup(stream)
	return data
}

func (s *replicaStore) restore(_ *vtime.Proc, stream string) ([]frame, []byte, string, bool) {
	raw, own := s.lookup(stream)
	frames, consumed, err := decodeFramesPrefix(raw)
	if len(frames) == 0 {
		return nil, nil, "", false // nothing held, or (defensive) nothing decodable
	}
	if err != nil {
		// A replica with a broken tail (shouldn't happen — pushes are whole
		// clean frames): keep only the valid prefix so later appends can't
		// land behind garbage.
		s.truncate(stream, consumed)
	}
	source := metrics.SourceReplicaPeer
	if own {
		source = metrics.SourceReplicaLocal
	}
	return frames, raw[:consumed], source, true
}

// pfsCopy is the store's durable holder: the stream's file on the PFS,
// shared by every rank.
type pfsCopy struct{ *ckptStore }

func (h pfsCopy) private() bool { return false }

// peek waits a PFS outage out: whether a stream is restorable must not depend
// on when the outage fell.
func (h pfsCopy) peek(p *vtime.Proc, stream string) []byte {
	data, _ := peekOnline(p, h.pfs, ckptPath(h.jobID, stream), 0) // unreadable: nothing held
	return data
}

// restore replays the PFS stream. With prefetching (§5.1) the stream costs
// one bulk PFS read, a write of it to the local disk and a read back from
// there, and the bytes the bulk read returned are replayed; without it, every
// frame is a separate small PFS read. Transient read faults are retried; a
// whole-tier outage is waited out (no earlier holder covered the stream:
// bounded by the outage schedule, and the only way to preserve the run's
// output byte-for-byte); a torn tail or corrupted frame is quarantined
// WAL-style: the master copy is truncated to its longest valid prefix (so
// later readers replay only good frames) and the lost tail's work is redone
// by the caller.
func (h pfsCopy) restore(p *vtime.Proc, stream string) ([]frame, []byte, string, bool) {
	path := ckptPath(h.jobID, stream)
	if !h.pfs.Exists(path) {
		return nil, nil, "", false
	}
	var raw []byte
	var err error
	if h.prefetch {
		raw, err = readRetry(p, h.pfs, path, nil, &h.m.Recovery.LoadCkpt)
		if err == nil {
			h.m.Recovery.LoadCkpt += h.local.Charge(p, 1, len(raw)) // the staging write
			h.m.Recovery.LoadCkpt += h.local.Charge(p, 1, len(raw)) // its read-back
		}
	} else {
		raw, err = peekOnline(p, h.pfs, path, 0)
	}
	if err != nil {
		return nil, nil, "", false
	}
	frames, consumed, err := decodeFramesPrefix(raw)
	if err != nil {
		// Quarantine everything from the first bad frame on. Replaying a
		// partially-corrupt suffix would inject garbage state; dropping it
		// only costs rework, which the recovery path already handles for
		// streams that never became durable at all.
		h.obs.Rec.CkptCorrupt(stream, consumed, len(raw))
		h.m.Counters["ckpt_corrupt"]++
		h.pfs.Truncate(path, consumed)
	}
	if !h.prefetch {
		// Direct PFS replay: charge one operation per frame.
		h.m.Recovery.LoadCkpt += h.pfs.Charge(p, len(frames), consumed)
	}
	return frames, raw[:consumed], metrics.SourcePFS, true
}

// shuffleSnapshotIn reports whether the valid frame prefix of a raw stream
// carries a post-shuffle snapshot.
func shuffleSnapshotIn(raw []byte) bool {
	for off := 0; off < len(raw); {
		f, n, err := nextFrame(raw[off:])
		if err != nil {
			break
		}
		off += n
		if f.kind != frameShuffle {
			continue
		}
		if len(f.payload) == 0 {
			return true // a valid snapshot of an empty partition
		}
		if _, err := kvbuf.FromBytes(f.payload); err == nil {
			return true
		}
	}
	return false
}
