package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"strings"
	"testing"

	"ipregel/internal/gen"
)

// resealFrontier rewrites the frontier section of a v2 record with
// edit's list and recomputes that section's checksum, so only the
// restore-time checks can tell the record is inconsistent.
func resealFrontier(t testing.TB, rec []byte, edit func([]int32) []int32) []byte {
	t.Helper()
	out := append([]byte(nil), rec[:4+32+4]...) // magic, header, header checksum
	rest := rec[len(out):]
	for s := 0; s < sectionCount; s++ {
		n := binary.LittleEndian.Uint64(rest)
		body := rest[8 : 8+n]
		rest = rest[8+n+4:]
		if s == sectionFrontier {
			var list []int32
			for i := 0; i < len(body); i += 4 {
				list = append(list, int32(binary.LittleEndian.Uint32(body[i:])))
			}
			body = nil
			for _, slot := range edit(list) {
				body = binary.LittleEndian.AppendUint32(body, uint32(slot))
			}
		}
		out = binary.LittleEndian.AppendUint64(out, uint64(len(body)))
		out = append(out, body...)
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, crcTable))
	}
	return append(out, rest...)
}

// frontierMailMismatches derives the two records a frontier/mail check
// must refuse from a bypass checkpoint of the checkpoint grid: its
// frontier without the first entry (mail on an unlisted slot), and with
// a slot that has no mail appended. It returns the slot each names.
func frontierMailMismatches(t testing.TB, rec []byte) (unlisted []byte, unlistedSlot int32, unmailed []byte, unmailedSlot int32) {
	t.Helper()
	var frontier []int32
	unlisted = resealFrontier(t, rec, func(f []int32) []int32 {
		if len(f) == 0 {
			t.Fatal("checkpoint frontier is empty")
		}
		frontier = f
		unlistedSlot = f[0]
		return f[1:]
	})
	listed := map[int32]bool{}
	for _, slot := range frontier {
		listed[slot] = true
	}
	unmailedSlot = -1
	for slot := int32(0); unmailedSlot < 0; slot++ {
		if !listed[slot] {
			unmailedSlot = slot
		}
	}
	unmailed = resealFrontier(t, rec, func(f []int32) []int32 { return append(f, unmailedSlot) })
	return unlisted, unlistedSlot, unmailed, unmailedSlot
}

// TestRestoreFrontierMatchesMail: a bypass barrier's frontier is exactly
// the slots with mail. A CRC-valid record whose frontier misses a slot
// with mail would drop that message, one that lists a slot without mail
// would run a vertex for nothing: Restore refuses both, naming the slot,
// and VerifyCheckpoint, which checks structure only, still accepts them.
func TestRestoreFrontierMatchesMail(t *testing.T) {
	g := gridForCheckpoint(t)
	for _, cfg := range []Config{
		{Combiner: CombinerSpin, Threads: 1, SelectionBypass: true},
		{Combiner: CombinerMutex, Threads: 4, SelectionBypass: true},
	} {
		rec := captureCheckpoints(t, cfg, 3)[0]
		if _, err := Restore(bytes.NewReader(rec), g, cfg, ssspProg(1), u32Codec{}, u32Codec{}); err != nil {
			t.Fatalf("%s: pristine checkpoint rejected: %v", cfg.VersionName(), err)
		}
		unlisted, us, unmailed, ms := frontierMailMismatches(t, rec)
		for _, c := range []struct {
			rec  []byte
			want string
		}{
			{unlisted, fmt.Sprintf("mail for slot %d, which its frontier does not list", us)},
			{unmailed, fmt.Sprintf("frontier lists slot %d, which has no mail", ms)},
		} {
			if _, err := VerifyCheckpoint(bytes.NewReader(c.rec)); err != nil {
				t.Fatalf("%s: resealed record failed verification: %v", cfg.VersionName(), err)
			}
			_, err := Restore(bytes.NewReader(c.rec), g, cfg, ssspProg(1), u32Codec{}, u32Codec{})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s: Restore = %v, want an error containing %q", cfg.VersionName(), err, c.want)
			}
		}
	}
}

// TestRestoreRejectsActiveUnderBypass: a selection-bypass engine keeps no
// activity array, since no barrier it checkpoints leaves a vertex active;
// a record marking one active is refused by name.
func TestRestoreRejectsActiveUnderBypass(t *testing.T) {
	g := gridForCheckpoint(t)
	cfg := Config{Combiner: CombinerSpin, Threads: 1, SelectionBypass: true}
	rec := captureCheckpoints(t, cfg, 3)[0]
	// The activity section follows the values section: its first byte is
	// slot 0's flag.
	valuesLen := binary.LittleEndian.Uint64(rec[40:])
	at := 40 + 8 + int(valuesLen) + 4 // length, body, checksum
	n := int(binary.LittleEndian.Uint64(rec[at:]))
	mut := append([]byte(nil), rec...)
	body := mut[at+8 : at+8+n]
	body[7] = 1
	binary.LittleEndian.PutUint32(mut[at+8+n:], crc32.Checksum(body, crcTable))
	_, err := Restore(bytes.NewReader(mut), g, cfg, ssspProg(1), u32Codec{}, u32Codec{})
	if err == nil || !strings.Contains(err.Error(), "marks slot 7 active") {
		t.Fatalf("Restore = %v, want an error naming slot 7 active", err)
	}
}

// TestRestoreDenseFrontier: a checkpoint of a barrier whose frontier is
// past the list cap lists its slots, and Restore makes that frontier
// dense again, as gatherFrontier left it — no list held — and the
// resumed run ends on the uninterrupted run's values.
func TestRestoreDenseFrontier(t *testing.T) {
	g := gen.RMATN(3000, 24000, 7, 1, true)
	hub := 0
	for i := range g.N() {
		if g.OutDegree(i) > g.OutDegree(hub) {
			hub = i
		}
	}
	cfg := Config{Threads: 1, SelectionBypass: true, CheckInvariants: true}
	prog := ssspProg(g.ExternalID(hub))
	saved := map[int]*bytes.Buffer{}
	e, err := New(g, cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetCheckpointer(Checkpointer[uint32, uint32]{
		Every:  1,
		Sink:   func(s int) (io.Writer, error) { saved[s] = &bytes.Buffer{}; return saved[s], nil },
		VCodec: u32Codec{}, MCodec: u32Codec{},
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	barrier := -1
	for k, st := range rep.Steps {
		if st.NextFrontier > int64(listCap(g.N())) && saved[k+1] != nil {
			barrier = k + 1
			break
		}
	}
	if barrier < 0 {
		t.Fatalf("no checkpointed barrier has a frontier past the list cap %d:\n%s", listCap(g.N()), rep.Table())
	}
	r, err := Restore(bytes.NewReader(saved[barrier].Bytes()), g, cfg, prog, u32Codec{}, u32Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.dense || len(r.frontier) != 0 {
		t.Fatalf("barrier %d (frontier %d, cap %d) restored with dense=%v and a %d-entry list", barrier, rep.Steps[barrier-1].NextFrontier, listCap(g.N()), r.dense, len(r.frontier))
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.ValuesDense(), e.ValuesDense()) {
		t.Fatalf("resumed from dense barrier %d, values differ from the uninterrupted run", barrier)
	}
}

// lingerProg keeps vertices active without mail: a vertex holds ticks
// (id mod 7 at superstep 0, plus up to 3 per superstep it gets mail) and
// spends one per superstep, staying active while it has any; when they
// run out before superstep 12 it broadcasts 1, and once they are out it
// votes to halt. Its value is fired·256 + ticks, so a lost or stray
// activity bit changes the result.
func lingerProg() Program[uint32, uint32] {
	return Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) { *old += new },
		Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			val := v.Value()
			if ctx.IsFirstSuperstep() {
				*val = uint32(v.ID()) % 7
			}
			var m uint32
			if ctx.NextMessage(v, &m) {
				*val += min(m, 3)
			}
			if *val&255 == 0 {
				ctx.VoteToHalt(v)
				return
			}
			*val--
			if *val&255 == 0 && ctx.Superstep() < 12 {
				*val += 256
				ctx.Broadcast(v, 1)
			}
		},
	}
}

// TestRestoreActivityRoundTrip: a non-bypass engine, checkpointed at
// every barrier of a run that leaves vertices active without mail, at 1,
// 2 and 4 threads. Each checkpoint restores the activity bits it was
// written from (one byte per slot on disk), and every resumed run ends
// at the uninterrupted run's superstep with the one-thread run's values.
func TestRestoreActivityRoundTrip(t *testing.T) {
	g := gen.RMATN(3000, 24000, 7, 1, true)
	var want []uint32
	for _, threads := range []int{1, 2, 4} {
		cfg := Config{Combiner: CombinerSpin, Threads: threads, CheckInvariants: true}
		e, err := New(g, cfg, lingerProg())
		if err != nil {
			t.Fatal(err)
		}
		saved, activity := map[int]*bytes.Buffer{}, map[int][]uint8{}
		if err := e.SetCheckpointer(Checkpointer[uint32, uint32]{
			Every: 1,
			Sink: func(s int) (io.Writer, error) {
				saved[s], activity[s] = &bytes.Buffer{}, e.activityBytes()
				return saved[s], nil
			},
			VCodec: u32Codec{}, MCodec: u32Codec{},
		}); err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = e.ValuesDense()
		} else if !reflect.DeepEqual(e.ValuesDense(), want) {
			t.Fatalf("threads=%d: values differ from the one-thread run", threads)
		}
		lingered := false
		for s, rec := range saved {
			lingered = lingered || bytes.IndexByte(activity[s], 1) >= 0
			r, err := Restore(bytes.NewReader(rec.Bytes()), g, cfg, lingerProg(), u32Codec{}, u32Codec{})
			if err != nil {
				t.Fatalf("threads=%d barrier %d: %v", threads, s, err)
			}
			if !bytes.Equal(r.activityBytes(), activity[s]) {
				t.Fatalf("threads=%d barrier %d: restored activity differs from the checkpointed engine's", threads, s)
			}
			rrep, err := r.Run()
			if err != nil {
				t.Fatalf("threads=%d barrier %d: resumed run: %v", threads, s, err)
			}
			if rrep.Supersteps != rep.Supersteps || !reflect.DeepEqual(r.ValuesDense(), want) {
				t.Fatalf("threads=%d barrier %d: resumed run ends at superstep %d (want %d) or on other values", threads, s, rrep.Supersteps, rep.Supersteps)
			}
		}
		if !lingered {
			t.Fatalf("threads=%d: no checkpointed barrier left a vertex active", threads)
		}
	}
}
