package relaynet

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"d2dhb/internal/hbproto"
)

// A v1 trunk's first two frames and the ack the server answered them with
// before hbproto v2, as that encoder wrote them: the Register of trunk
// "loadtrunk-0000" and a Batch of three of its users' heartbeats (seqs 7,
// 8, 9), and the one Ack listing the three by (source, seq).
const (
	v1TrunkRegister = "48420101000000200e6c6f61647472756e6b2d3030303002046661737480a8d6b90780e0ba84bf03bbcd8474"
	v1TrunkBatch    = "48420103000000760e6c6f61647472756e6b2d30303030030e6c6f616475652d3030303030303007046661737480a0abfef96280e0ba84bf03360e6c6f616475652d3030303030303108046661737480a0abfef96280e0ba84bf03360e6c6f616475652d3030303030303209046661737480a0abfef96280e0ba84bf0336af4fd35f"
	v1TrunkAck      = "4842010400000031030e6c6f616475652d30303030303030070e6c6f616475652d30303030303031080e6c6f616475652d30303030303032099b5b0553"
)

// exchange writes frames to a fresh connection to s and returns the n
// bytes the server answers with.
func exchange(t *testing.T, s *Server, frames []byte, n int) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	got := make([]byte, n)
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("reading the server's %d-byte answer: %v", n, err)
	}
	return got
}

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServerAcksAV1TrunkPerRef: a sender that speaks v1, as every sender
// did before v2, gets the per-ref v1 Ack it always got, byte for byte.
func TestServerAcksAV1TrunkPerRef(t *testing.T) {
	s := startServer(t, loopback{})
	want := unhex(t, v1TrunkAck)
	got := exchange(t, s, append(unhex(t, v1TrunkRegister), unhex(t, v1TrunkBatch)...), len(want))
	if !bytes.Equal(got, want) {
		t.Fatalf("v1 ack = %x, want %x", got, want)
	}
	if st := s.Stats(); st.HeartbeatsRelayed != 3 || st.ProtocolErrors != 0 {
		t.Fatalf("server stats %+v, want 3 relayed heartbeats and no protocol error", st)
	}
}

// TestServerAcksAV2TrunkByFrame: the same trunk speaking v2 — the same
// messages in v2 frames — gets one v2 Ack naming its batch frame by that
// frame's CRC.
func TestServerAcksAV2TrunkByFrame(t *testing.T) {
	s := startServer(t, loopback{})
	var frames []byte
	fr := hbproto.NewFrameReader(bytes.NewReader(append(unhex(t, v1TrunkRegister), unhex(t, v1TrunkBatch)...)))
	for range 2 {
		msg, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if frames, err = hbproto.AppendFrameV(frames, hbproto.Version2, msg); err != nil {
			t.Fatal(err)
		}
	}
	want, err := hbproto.AppendFrameV(nil, hbproto.Version2, &hbproto.Ack{Frames: []uint32{binary.BigEndian.Uint32(frames[len(frames)-4:])}})
	if err != nil {
		t.Fatal(err)
	}
	if got := exchange(t, s, frames, len(want)); !bytes.Equal(got, want) {
		t.Fatalf("v2 ack = %x, want %x", got, want)
	}
	if st := s.Stats(); st.HeartbeatsRelayed != 3 || st.ProtocolErrors != 0 {
		t.Fatalf("server stats %+v, want 3 relayed heartbeats and no protocol error", st)
	}
}

// TestServerDropsAMixedVersionConnection: a connection speaks its first
// frame's version, so a v2 frame after a v1 one — or the reverse — is a
// protocol error: the server drops the connection, counts it, and never
// applies the frame.
func TestServerDropsAMixedVersionConnection(t *testing.T) {
	register, batch := unhex(t, v1TrunkRegister), unhex(t, v1TrunkBatch)
	msg, err := hbproto.NewFrameReader(bytes.NewReader(batch)).Next()
	if err != nil {
		t.Fatal(err)
	}
	batch2, err := hbproto.AppendFrameV(nil, hbproto.Version2, msg)
	if err != nil {
		t.Fatal(err)
	}
	msg, err = hbproto.NewFrameReader(bytes.NewReader(register)).Next()
	if err != nil {
		t.Fatal(err)
	}
	register2, err := hbproto.AppendFrameV(nil, hbproto.Version2, msg)
	if err != nil {
		t.Fatal(err)
	}
	for i, stream := range [][]byte{append(register, batch2...), append(register2, batch...)} {
		s := startServer(t, loopback{})
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		if _, err := conn.Write(stream); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
		// Closed, or reset for the bytes it left unread: either way no ack.
		if n, err := conn.Read(make([]byte, 64)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("stream %d: the server answered %d bytes (%v), want the connection closed", i, n, err)
		}
		if st := s.Stats(); st.ProtocolErrors != 1 || st.HeartbeatsRelayed != 0 || st.Registers != 1 {
			t.Fatalf("stream %d: server stats %+v, want the register applied, the batch refused and 1 protocol error", i, st)
		}
	}
}
