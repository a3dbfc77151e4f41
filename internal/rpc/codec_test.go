package rpc

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"cogrid/internal/transport"
	"cogrid/internal/wire"
)

// TestCodecInterop runs the echo service across every client/server codec
// pairing: the receive side auto-detects per frame, so a JSON peer and a
// binary peer must interoperate transparently — calls, errors, and
// notifications in both directions.
func TestCodecInterop(t *testing.T) {
	codecName := map[Codec]string{Binary: "binary", JSON: "json"}
	for _, clientCodec := range []Codec{Binary, JSON} {
		for _, serverCodec := range []Codec{Binary, JSON} {
			name := fmt.Sprintf("client=%s/server=%s", codecName[clientCodec], codecName[serverCodec])
			t.Run(name, func(t *testing.T) {
				sim, a, b := newPair(t)
				l, err := b.Listen("echo")
				if err != nil {
					t.Fatalf("Listen: %v", err)
				}
				h := HandlerFuncs{
					Call: func(sc *ServerConn, method string, body json.RawMessage) (any, error) {
						var args echoArgs
						if err := Decode(body, &args); err != nil {
							return nil, err
						}
						if method == "boom" {
							return nil, fmt.Errorf("kaboom")
						}
						return echoReply{Text: args.Text}, nil
					},
					NotifyFunc: func(sc *ServerConn, method string, body json.RawMessage) {
						sc.Notify("poked", echoReply{Text: "back"})
					},
				}
				ServeCodec(sim, l, h, nil, serverCodec)
				err = sim.Run("client", func() {
					conn, err := a.Dial(transport.Addr{Host: "b", Service: "echo"})
					if err != nil {
						t.Errorf("Dial: %v", err)
						return
					}
					c := NewClientCodec(sim, conn, clientCodec)
					defer c.Close()
					var reply echoReply
					if err := c.Call("echo", echoArgs{Text: "hello"}, &reply, time.Minute); err != nil {
						t.Errorf("Call: %v", err)
						return
					}
					if reply.Text != "hello" {
						t.Errorf("reply = %q, want hello", reply.Text)
					}
					if err := c.Call("boom", echoArgs{}, nil, time.Minute); err == nil || err.Error() != "kaboom" {
						t.Errorf("boom = %v, want remote kaboom", err)
					}
					if err := c.Notify("poke", nil); err != nil {
						t.Errorf("Notify: %v", err)
					}
					n, ok := c.Notifications().Recv()
					if !ok || n.Method != "poked" {
						t.Errorf("notification = %+v (ok=%t), want poked", n, ok)
					}
					var back echoReply
					if err := n.Decode(&back); err != nil || back.Text != "back" {
						t.Errorf("notification body = %+v, %v; want back", back, err)
					}
				})
				if err != nil {
					t.Fatalf("sim: %v", err)
				}
			})
		}
	}
}

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

// TestTypedBodyInterop is the body half of the interop matrix. Which form
// a body takes depends on the sender's message type and codec only; the
// receiver goes by the first byte, so every pairing decodes: typed bodies
// between binary peers, JSON bodies wherever a JSON-codec end sends, and
// the JSON a foreign client builds from a bare map into a typed receiver.
func TestTypedBodyInterop(t *testing.T) {
	codecName := map[Codec]string{Binary: "binary", JSON: "json"}
	firstByte := map[Codec]byte{Binary: wire.BodyMarker, JSON: '{'}
	for _, clientCodec := range []Codec{Binary, JSON} {
		for _, serverCodec := range []Codec{Binary, JSON} {
			name := fmt.Sprintf("client=%s/server=%s", codecName[clientCodec], codecName[serverCodec])
			t.Run(name, func(t *testing.T) {
				sim, a, b := newPair(t)
				l, err := b.Listen("typed")
				if err != nil {
					t.Fatalf("Listen: %v", err)
				}
				h := HandlerFuncs{
					Call: func(sc *ServerConn, method string, body json.RawMessage) (any, error) {
						want := firstByte[clientCodec]
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
				ServeCodec(sim, l, h, nil, serverCodec)
				err = sim.Run("client", func() {
					conn, err := a.Dial(transport.Addr{Host: "b", Service: "typed"})
					if err != nil {
						t.Errorf("Dial: %v", err)
						return
					}
					c := NewClientCodec(sim, conn, clientCodec)
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
					if !ok || len(n.Body) == 0 || n.Body[0] != firstByte[serverCodec] {
						t.Errorf("notification body = %q (ok=%t), want first byte %#x", n.Body, ok, firstByte[serverCodec])
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
					// A typed body into a value that cannot parse one must say
					// so, and name the type: it is a programming error at this
					// end, not line noise.
					var plain echoReply
					err = c.Call("typed", typedMsg{Text: "x"}, &plain, time.Minute)
					switch {
					case serverCodec == JSON:
						if err != nil || plain.Text != "x!" {
							t.Errorf("JSON reply into a plain struct = %+v, %v", plain, err)
						}
					case err == nil || !strings.Contains(err.Error(), "*rpc.echoReply") || errors.Is(err, wire.ErrFrame):
						t.Errorf("typed reply into a plain struct: err = %v, want one naming *rpc.echoReply", err)
					}
				})
				if err != nil {
					t.Fatalf("sim: %v", err)
				}
			})
		}
	}
}
