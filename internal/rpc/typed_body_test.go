package rpc

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"cogrid/internal/transport"
	"cogrid/internal/wire"
)

// typedMsg opts into the typed body form the way a production message
// does: AppendWire on the value, ParseWire on the pointer.
type typedMsg struct {
	Text string `json:"text"`
	N    int    `json:"n"`
}

func (m typedMsg) AppendWire(dst []byte) []byte {
	return wire.AppendVarint(wire.AppendString(dst, m.Text), int64(m.N))
}

func (m *typedMsg) ParseWire(src []byte) error {
	r := wire.NewReader(src)
	*m = typedMsg{Text: r.String(), N: r.Int()}
	return r.Done()
}

// TestTypedBodyInterop: which form a body takes depends on the sender's
// message type only; the receiver goes by the first byte, so every pairing
// decodes: typed bodies between typed peers, and the JSON a foreign client
// builds from a bare map into a typed receiver.
func TestTypedBodyInterop(t *testing.T) {
	sim, a, b := newPair(t)
	l, err := b.Listen("typed")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	h := HandlerFuncs{
		Call: func(sc *ServerConn, method string, body json.RawMessage) (any, error) {
			want := byte(wire.BodyMarker)
			if method == "foreign" {
				want = '{'
			}
			if body[0] != want {
				t.Errorf("%s: call body starts %#x, want %#x", method, body[0], want)
			}
			var m typedMsg
			if err := Decode(body, &m); err != nil {
				return nil, err
			}
			sc.Notify("seen", m)
			return typedMsg{Text: m.Text + "!", N: m.N + 1}, nil
		},
	}
	Serve(sim, l, h, nil)
	err = sim.Run("client", func() {
		conn, err := a.Dial(transport.Addr{Host: "b", Service: "typed"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c := NewClient(sim, conn)
		defer c.Close()
		var reply typedMsg
		if err := c.Call("typed", typedMsg{Text: "hello", N: -1}, &reply, time.Minute); err != nil {
			t.Errorf("Call: %v", err)
			return
		}
		if reply != (typedMsg{Text: "hello!", N: 0}) {
			t.Errorf("reply = %+v", reply)
		}
		n, ok := c.Notifications().Recv()
		if !ok || len(n.Body) == 0 || n.Body[0] != wire.BodyMarker {
			t.Errorf("notification body = %q (ok=%t), want first byte %#x", n.Body, ok, wire.BodyMarker)
		}
		var seen typedMsg
		if err := n.Decode(&seen); err != nil || seen != (typedMsg{Text: "hello", N: -1}) {
			t.Errorf("notification body = %+v, %v", seen, err)
		}
		// A client that knows the protocol only as JSON field names.
		if err := c.Call("foreign", map[string]any{"text": "raw", "n": 41}, &reply, time.Minute); err != nil {
			t.Errorf("foreign Call: %v", err)
			return
		}
		if reply != (typedMsg{Text: "raw!", N: 42}) {
			t.Errorf("foreign reply = %+v", reply)
		}
		c.Notifications().Recv()
		// A typed body into a value that cannot parse one must say so, and
		// name the type: it is a programming error at this end, not line
		// noise.
		var plain echoReply
		err = c.Call("typed", typedMsg{Text: "x"}, &plain, time.Minute)
		if err == nil || !strings.Contains(err.Error(), "*rpc.echoReply") || errors.Is(err, wire.ErrFrame) {
			t.Errorf("typed reply into a plain struct: err = %v, want one naming *rpc.echoReply", err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}
