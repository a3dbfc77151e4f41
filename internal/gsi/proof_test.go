package gsi

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// oldProof is the proof as it was computed before it went onto the stack:
// crypto/hmac over converted inputs, hex-encoded into a new string.
func oldProof(secret []byte, nonce, name string) string {
	mac := hmac.New(sha256.New, secret)
	mac.Write([]byte(nonce))
	mac.Write([]byte(name))
	return hex.EncodeToString(mac.Sum(nil))
}

// oldNonce is the nonce as it was formatted before it was written digit
// by digit.
func oldNonce(sim *vtime.Sim) string {
	return fmt.Sprintf("%08x%08x", sim.RandIntn(1<<31), sim.RandIntn(1<<31))
}

// The in-place MAC is crypto/hmac's, for keys shorter than, equal to and
// longer than a SHA-256 block and for inputs on both sides of the stack
// buffer's limit (the longer ones take the crypto/hmac path).
func TestProofEqualsCryptoHMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randString := func(n int) string {
		b := make([]byte, n)
		rng.Read(b)
		return string(b)
	}
	keyLens := []int{0, 1, 16, 32, 63, 64, 65, 100, 200}
	inputLens := []int{0, 1, 16, proofInput - 1, proofInput, proofInput + 1, 2 * proofInput}
	for _, kl := range keyLens {
		for _, il := range inputLens {
			for trial := 0; trial < 4; trial++ {
				secret := []byte(randString(kl))
				cut := 0
				if il > 0 {
					cut = rng.Intn(il + 1)
				}
				in := randString(il)
				nonce, name := in[:cut], in[cut:]
				want := oldProof(secret, nonce, name)
				if got := proofString(secret, nonce, name); got != want {
					t.Fatalf("key %d B, nonce %d B, name %d B: proof %s, crypto/hmac %s", kl, len(nonce), len(name), got, want)
				}
				if !proofValid(want, secret, nonce, name) {
					t.Fatalf("key %d B, nonce %d B, name %d B: crypto/hmac's proof rejected", kl, len(nonce), len(name))
				}
			}
		}
	}
	// A registry's own secrets, with a handshake's nonce and names.
	reg := NewRegistry()
	for _, name := range []string{"user/alice", "host/b", strings.Repeat("n", proofInput)} {
		cred := reg.Issue(name)
		if got, want := proofString(cred.secret, "0123456789abcdef", name), oldProof(cred.secret, "0123456789abcdef", name); got != want {
			t.Errorf("%s: proof %s, crypto/hmac %s", name, got, want)
		}
	}
}

// A proof is accepted only as the exact lowercase hex string.
func TestProofValidRejectsNearMisses(t *testing.T) {
	secret := []byte("secret")
	good := oldProof(secret, "n", "alice")
	flip := []byte(good)
	flip[len(flip)-1] ^= 1
	for _, bad := range []string{
		"", good[:63], good + "0", string(flip), strings.ToUpper(good),
		oldProof(secret, "n", "bob"), oldProof([]byte("other"), "n", "alice"),
	} {
		if proofValid(bad, secret, "n", "alice") {
			t.Errorf("proofValid accepted %q", bad)
		}
	}
	if !proofValid(good, secret, "n", "alice") {
		t.Error("proofValid rejected the proof")
	}
}

// Nonces are fmt's "%08x%08x" of the same two draws, and draw no more.
func TestNonceEqualsSprintf(t *testing.T) {
	a, b := vtime.NewSeeded(7), vtime.NewSeeded(7)
	for i := 0; i < 2000; i++ {
		if got, want := nonce(a), oldNonce(b); got != want {
			t.Fatalf("nonce %d: %q, fmt %q", i, got, want)
		}
	}
	if x, y := a.RandIntn(1<<31), b.RandIntn(1<<31); x != y {
		t.Fatalf("the draw streams parted: next %d vs %d", x, y)
	}
	for _, v := range []uint32{0, 1, 0xf, 0x7fffffff, 0xffffffff} {
		var b [8]byte
		putHex8(b[:], v)
		if want := fmt.Sprintf("%08x", v); string(b[:]) != want {
			t.Errorf("putHex8(%#x) = %q, want %q", v, b[:], want)
		}
	}
}

// Computing and checking a proof allocate nothing; the proof a frame
// carries is its one string.
func TestProofAllocations(t *testing.T) {
	secret := NewRegistry().Issue("host/b").secret
	var hexed [2 * sha256.Size]byte
	if n := testing.AllocsPerRun(100, func() { proof(&hexed, secret, "0123456789abcdef", "user/alice") }); n != 0 {
		t.Errorf("proof allocates %v times, want 0", n)
	}
	good := string(hexed[:])
	if n := testing.AllocsPerRun(100, func() { proofValid(good, secret, "0123456789abcdef", "user/alice") }); n != 0 {
		t.Errorf("proofValid allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { proofString(secret, "0123456789abcdef", "user/alice") }); n != 1 {
		t.Errorf("proofString allocates %v times, want 1", n)
	}
	sim := vtime.New()
	if n := testing.AllocsPerRun(100, func() { nonce(sim) }); n != 1 {
		t.Errorf("nonce allocates %v times, want 1", n)
	}
}

// One client/server handshake pair on an open connection, both sides:
// measured 10 allocations (the four frames' deliveries and parsed fields,
// two nonces and the two proofs sent). It was 15 while a wait that ended
// before its timeout left the timeout's entry filed in the timer queue, so
// the next wait allocated another, 23 while the frames went through
// interfaces, each of the eight moving to the heap, and 65 while each proof
// went through crypto/hmac and hex.EncodeToString, each check converted
// both strings, and each nonce was fmt.Sprintf's.
func TestHandshakeAllocations(t *testing.T) {
	sim := vtime.New()
	net := transport.New(sim, transport.UniformLatency(time.Millisecond))
	a, b := net.AddHost("a"), net.AddHost("b")
	reg := NewRegistry()
	user, host := reg.Issue("user/alice"), reg.Issue("host/b")
	l, err := b.Listen("gk")
	if err != nil {
		t.Fatal(err)
	}
	sim.GoDaemon("server", func() {
		conn, ok := l.Accept()
		if !ok {
			return
		}
		for {
			if _, err := ServerHandshake(sim, conn, host, reg, DefaultCost); err != nil {
				return
			}
		}
	})
	var allocs float64
	err = sim.Run("client", func() {
		conn, err := a.Dial(l.Addr())
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		defer conn.Close()
		allocs = testing.AllocsPerRun(100, func() {
			if _, err := ClientHandshake(sim, conn, user, reg, DefaultCost); err != nil {
				t.Fatalf("handshake: %v", err)
			}
		})
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if allocs > 10 {
		t.Errorf("one handshake pair allocates %v times, want at most 10", allocs)
	}
}
