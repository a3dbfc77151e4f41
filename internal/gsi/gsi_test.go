package gsi

import (
	"errors"
	"testing"
	"time"

	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// handshakePair runs a server on host b and returns the outcome of both
// sides of one handshake.
type outcome struct {
	peer string
	err  error
	at   time.Duration
}

func runHandshake(t *testing.T, mutate func(reg *Registry, client, server *Credential)) (clientRes, serverRes outcome) {
	t.Helper()
	sim := vtime.New()
	net := transport.New(sim, transport.UniformLatency(time.Millisecond))
	a, b := net.AddHost("a"), net.AddHost("b")
	reg := NewRegistry()
	clientCred := reg.Issue("user/alice")
	serverCred := reg.Issue("host/b")
	if mutate != nil {
		mutate(reg, &clientCred, &serverCred)
	}
	l, err := b.Listen("gk")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	serverDone := vtime.NewChan[outcome](sim, "server-done", 1)
	sim.GoDaemon("server", func() {
		conn, ok := l.Accept()
		if !ok {
			return
		}
		peer, err := ServerHandshake(sim, conn, serverCred, reg, DefaultCost)
		serverDone.Send(outcome{peer: peer, err: err, at: sim.Now()})
	})
	err = sim.Run("client", func() {
		conn, err := a.Dial(transport.Addr{Host: "b", Service: "gk"})
		if err != nil {
			clientRes = outcome{err: err}
			return
		}
		peer, err := ClientHandshake(sim, conn, clientCred, reg, DefaultCost)
		clientRes = outcome{peer: peer, err: err, at: sim.Now()}
		if sr, res := serverDone.RecvTimeout(time.Minute); res == vtime.RecvOK {
			serverRes = sr
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	return clientRes, serverRes
}

func TestMutualAuthenticationSucceeds(t *testing.T) {
	c, s := runHandshake(t, nil)
	if c.err != nil {
		t.Fatalf("client handshake: %v", c.err)
	}
	if s.err != nil {
		t.Fatalf("server handshake: %v", s.err)
	}
	if c.peer != "host/b" {
		t.Errorf("client authenticated peer %q, want host/b", c.peer)
	}
	if s.peer != "user/alice" {
		t.Errorf("server authenticated peer %q, want user/alice", s.peer)
	}
}

func TestHandshakeChargesComputeCost(t *testing.T) {
	c, _ := runHandshake(t, nil)
	if c.err != nil {
		t.Fatalf("client handshake: %v", c.err)
	}
	// Timeline: dial RTT 2ms; hello 1ms; server compute 250ms; challenge
	// 1ms; client compute 250ms; response 1ms; result 1ms.
	want := 2*time.Millisecond + time.Millisecond + 250*time.Millisecond +
		time.Millisecond + 250*time.Millisecond + time.Millisecond + time.Millisecond
	if c.at != want {
		t.Errorf("handshake completed at %v, want %v", c.at, want)
	}
}

func TestRevokedClientRejected(t *testing.T) {
	c, s := runHandshake(t, func(reg *Registry, client, server *Credential) {
		reg.Revoke("user/alice")
	})
	wantRejected(t, c.err, ErrRevoked)
	if !errors.Is(s.err, ErrRevoked) {
		t.Errorf("server error = %v, want ErrRevoked", s.err)
	}
}

func TestUnknownClientRejected(t *testing.T) {
	c, s := runHandshake(t, func(reg *Registry, client, server *Credential) {
		*client = Credential{Name: "user/mallory", secret: []byte("guess")}
	})
	wantRejected(t, c.err, ErrUnknownPrincipal)
	if !errors.Is(s.err, ErrUnknownPrincipal) {
		t.Errorf("server error = %v, want ErrUnknownPrincipal", s.err)
	}
}

func TestForgedClientProofRejected(t *testing.T) {
	c, s := runHandshake(t, func(reg *Registry, client, server *Credential) {
		// Mallory knows alice's name but holds the wrong secret.
		stale := *client
		reg.Issue("user/alice") // rotate the registered secret
		*client = stale
	})
	if c.err == nil {
		t.Error("client with stale secret authenticated")
	}
	if !errors.Is(s.err, ErrBadProof) {
		t.Errorf("server error = %v, want ErrBadProof", s.err)
	}
}

func TestClientDetectsServerImpersonation(t *testing.T) {
	c, _ := runHandshake(t, func(reg *Registry, client, server *Credential) {
		// The server presents an identity whose registered secret differs
		// from the secret it actually signs with.
		stale := *server
		reg.Issue("host/b")
		*server = stale
	})
	if !errors.Is(c.err, ErrBadProof) {
		t.Errorf("client error = %v, want ErrBadProof (must verify the server)", c.err)
	}
}

func TestRevokedServerRefusesToServe(t *testing.T) {
	c, s := runHandshake(t, func(reg *Registry, client, server *Credential) {
		reg.Revoke("host/b")
	})
	wantRejected(t, c.err, ErrRevoked)
	if !errors.Is(s.err, ErrRevoked) {
		t.Errorf("server error = %v, want ErrRevoked", s.err)
	}
}

// wantRejected checks the client's side of an early rejection: the server's
// gsi-result arrived where a challenge was expected, and the client reports
// the server's reason.
func wantRejected(t *testing.T, err, reason error) {
	t.Helper()
	if want := "gsi: rejected by peer: " + reason.Error(); err == nil || err.Error() != want {
		t.Errorf("client error = %v, want %q", err, want)
	}
}

// TestResultKindWhereChallengeExpected: a frame that carries a challenge's
// keys but the kind gsi-result is a rejection, with the reason it carries
// (none), not a challenge.
func TestResultKindWhereChallengeExpected(t *testing.T) {
	sim := vtime.New()
	net := transport.New(sim, transport.UniformLatency(time.Millisecond))
	a, b := net.AddHost("a"), net.AddHost("b")
	reg := NewRegistry()
	cred := reg.Issue("user/alice")
	reg.Issue("host/b")
	l, err := b.Listen("gk")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	sim.GoDaemon("server", func() {
		conn, ok := l.Accept()
		if !ok {
			return
		}
		if _, err := conn.RecvTimeout(time.Minute); err != nil {
			return
		}
		conn.Send([]byte(`{"kind":"gsi-result","server":"host/b","nonce_s":"00","proof_s":"00"}`))
	})
	var got error
	err = sim.Run("client", func() {
		conn, err := a.Dial(transport.Addr{Host: "b", Service: "gk"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		_, got = ClientHandshake(sim, conn, cred, reg, DefaultCost)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if want := "gsi: rejected by peer: "; got == nil || got.Error() != want {
		t.Errorf("client error = %v, want %q", got, want)
	}
}

func TestReinstateClearsRevocation(t *testing.T) {
	c, s := runHandshake(t, func(reg *Registry, client, server *Credential) {
		reg.Revoke("user/alice")
		reg.Reinstate("user/alice")
	})
	if c.err != nil || s.err != nil {
		t.Fatalf("handshake after reinstate failed: client=%v server=%v", c.err, s.err)
	}
}

func TestCostModelTotal(t *testing.T) {
	if got := DefaultCost.Total(); got != 500*time.Millisecond {
		t.Errorf("DefaultCost.Total = %v, want 500ms (Figure 3 calibration)", got)
	}
}
