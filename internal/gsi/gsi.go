// Package gsi simulates the Grid Security Infrastructure: a mutual
// authentication handshake between a requestor and a resource, with a
// configurable computational cost model.
//
// The real GSI performs SSL mutual authentication with X.509 certificates;
// the paper's Figure 3 attributes 0.5 s of a GRAM request to it, split
// between computation on both sides and network round trips. We reproduce
// the protocol structure — a four-message mutual challenge–response with
// real HMAC-SHA256 proofs — using a trusted registry of shared secrets in
// place of a certificate authority, and charge the configured compute cost
// on each side.
package gsi

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"cogrid/internal/transport"
	"cogrid/internal/vtime"
	"cogrid/internal/wire"
)

// Errors returned by handshakes.
var (
	ErrUnknownPrincipal = errors.New("gsi: unknown principal")
	ErrRevoked          = errors.New("gsi: credential revoked")
	ErrBadProof         = errors.New("gsi: proof verification failed")
	ErrProtocol         = errors.New("gsi: protocol violation")
	ErrTimeout          = errors.New("gsi: handshake timed out")
)

// CostModel gives the computational cost charged on each side of a
// handshake. The defaults reproduce Figure 3's 0.5 s authentication
// budget, split evenly.
type CostModel struct {
	ClientCompute time.Duration
	ServerCompute time.Duration
}

// DefaultCost is the Figure 3 calibration.
var DefaultCost = CostModel{ClientCompute: 250 * time.Millisecond, ServerCompute: 250 * time.Millisecond}

// Total returns the combined compute cost of one handshake.
func (c CostModel) Total() time.Duration { return c.ClientCompute + c.ServerCompute }

// Credential identifies a principal. The secret plays the role of a
// private key; it is distributed through the Registry, which plays the
// role of the certificate authority.
type Credential struct {
	Name   string
	secret []byte
}

// Registry is the trust database shared by all parties (the simulated CA).
type Registry struct {
	nextID  uint64
	secrets map[string][]byte
	revoked map[string]bool
}

// NewRegistry creates an empty trust database.
func NewRegistry() *Registry {
	return &Registry{secrets: make(map[string][]byte), revoked: make(map[string]bool)}
}

// Issue creates and registers a credential for name. Issuing for an
// existing name replaces the old secret.
func (r *Registry) Issue(name string) Credential {
	r.nextID++
	secret := make([]byte, 16)
	binary.BigEndian.PutUint64(secret, r.nextID)
	copy(secret[8:], name)
	sum := sha256.Sum256(append(secret, name...))
	r.secrets[name] = sum[:]
	delete(r.revoked, name)
	return Credential{Name: name, secret: sum[:]}
}

// Revoke marks a principal's credential invalid; handshakes involving it
// fail with ErrRevoked. Used for auth-failure injection.
func (r *Registry) Revoke(name string) {
	r.revoked[name] = true
}

// Reinstate clears a revocation.
func (r *Registry) Reinstate(name string) {
	delete(r.revoked, name)
}

func (r *Registry) lookup(name string) ([]byte, error) {
	if r.revoked[name] {
		return nil, ErrRevoked
	}
	s, ok := r.secrets[name]
	if !ok {
		return nil, ErrUnknownPrincipal
	}
	return s, nil
}

// proofInput bounds the nonce and name a proof hashes on the stack; the
// handshake's are 16 bytes and a principal name.
const proofInput = 192

// proof writes HMAC-SHA256(secret, nonce || name) into dst as lowercase
// hex. The MAC is the two hashes of RFC 2104 over stack buffers: a key of
// at most one SHA-256 block and inputs of at most proofInput bytes
// allocate nothing; anything longer goes through crypto/hmac.
func proof(dst *[2 * sha256.Size]byte, secret []byte, nonce, name string) {
	var sum [sha256.Size]byte
	if len(secret) > sha256.BlockSize || len(nonce)+len(name) > proofInput {
		mac := hmac.New(sha256.New, secret)
		mac.Write([]byte(nonce))
		mac.Write([]byte(name))
		copy(sum[:], mac.Sum(nil))
	} else {
		var inner [sha256.BlockSize + proofInput]byte
		var outer [sha256.BlockSize + sha256.Size]byte
		copy(inner[:], secret)
		copy(outer[:], secret)
		for i := 0; i < sha256.BlockSize; i++ {
			inner[i] ^= 0x36
			outer[i] ^= 0x5c
		}
		n := sha256.BlockSize + copy(inner[sha256.BlockSize:], nonce)
		n += copy(inner[n:], name)
		sum = sha256.Sum256(inner[:n])
		copy(outer[sha256.BlockSize:], sum[:])
		sum = sha256.Sum256(outer[:])
	}
	hex.Encode(dst[:], sum[:])
}

// proofString is proof as the string a frame carries.
func proofString(secret []byte, nonce, name string) string {
	var hexed [2 * sha256.Size]byte
	proof(&hexed, secret, nonce, name)
	return string(hexed[:])
}

// proofValid reports, in time independent of where they differ, whether
// got is HMAC-SHA256(secret, nonce || name) in lowercase hex.
func proofValid(got string, secret []byte, nonce, name string) bool {
	var want [2 * sha256.Size]byte
	proof(&want, secret, nonce, name)
	if len(got) != len(want) {
		return false
	}
	var diff byte
	for i := range want {
		diff |= got[i] ^ want[i]
	}
	return diff == 0
}

type helloMsg struct {
	Kind   string `json:"kind"`
	Client string `json:"client"`
	NonceC string `json:"nonce_c"`
}

type challengeMsg struct {
	Kind   string `json:"kind"`
	Server string `json:"server"`
	NonceS string `json:"nonce_s"`
	ProofS string `json:"proof_s"`
}

type responseMsg struct {
	Kind   string `json:"kind"`
	ProofC string `json:"proof_c"`
}

type resultMsg struct {
	Kind  string `json:"kind"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// HandshakeTimeout bounds each message wait within a handshake.
const HandshakeTimeout = 60 * time.Second

// nonce draws two 31-bit values and writes each as eight lowercase hex
// digits, high one first.
func nonce(sim *vtime.Sim) string {
	var b [16]byte
	putHex8(b[:8], uint32(sim.RandIntn(1<<31)))
	putHex8(b[8:], uint32(sim.RandIntn(1<<31)))
	return string(b[:])
}

// putHex8 writes v as eight zero-padded lowercase hex digits.
func putHex8(dst []byte, v uint32) {
	const digits = "0123456789abcdef"
	for i := 7; i >= 0; i-- {
		dst[i] = digits[v&0xf]
		v >>= 4
	}
}

// ClientHandshake authenticates cred to the peer on conn and verifies the
// peer in return. It returns the authenticated peer name. The configured
// ClientCompute cost is charged before the client's proof is produced.
func ClientHandshake(sim *vtime.Sim, conn *transport.Conn, cred Credential, reg *Registry, cost CostModel) (string, error) {
	nc := nonce(sim)
	if err := sendJSON(conn, helloMsg{Kind: "gsi-hello", Client: cred.Name, NonceC: nc}); err != nil {
		return "", err
	}
	ch, err := recvJSON[challengeMsg](conn)
	if err != nil {
		return "", err
	}
	if ch.Kind != "gsi-challenge" {
		return "", ErrProtocol
	}
	serverSecret, err := reg.lookup(ch.Server)
	if err != nil {
		return "", err
	}
	sim.Sleep(cost.ClientCompute)
	if !proofValid(ch.ProofS, serverSecret, nc, ch.Server) {
		return "", ErrBadProof
	}
	pc := proofString(cred.secret, ch.NonceS, cred.Name)
	if err := sendJSON(conn, responseMsg{Kind: "gsi-response", ProofC: pc}); err != nil {
		return "", err
	}
	res, err := recvJSON[resultMsg](conn)
	if err != nil {
		return "", err
	}
	if res.Kind != "gsi-result" {
		return "", ErrProtocol
	}
	if !res.OK {
		return "", fmt.Errorf("gsi: rejected by server: %s", res.Error)
	}
	return ch.Server, nil
}

// ServerHandshake runs the resource side of the handshake, verifying the
// client and proving the server's own identity. It returns the
// authenticated client name. The configured ServerCompute cost is charged
// before the server's proof is produced.
func ServerHandshake(sim *vtime.Sim, conn *transport.Conn, cred Credential, reg *Registry, cost CostModel) (string, error) {
	hello, err := recvJSON[helloMsg](conn)
	if err != nil {
		return "", err
	}
	if hello.Kind != "gsi-hello" {
		return "", ErrProtocol
	}
	clientSecret, err := reg.lookup(hello.Client)
	if err != nil {
		// Tell the client before failing so it gets an error report
		// rather than a timeout.
		sendJSON(conn, resultMsg{Kind: "gsi-result", OK: false, Error: err.Error()})
		return "", err
	}
	if _, err := reg.lookup(cred.Name); err != nil {
		sendJSON(conn, resultMsg{Kind: "gsi-result", OK: false, Error: err.Error()})
		return "", err
	}
	sim.Sleep(cost.ServerCompute)
	ns := nonce(sim)
	ch := challengeMsg{
		Kind:   "gsi-challenge",
		Server: cred.Name,
		NonceS: ns,
		ProofS: proofString(cred.secret, hello.NonceC, cred.Name),
	}
	if err := sendJSON(conn, ch); err != nil {
		return "", err
	}
	resp, err := recvJSON[responseMsg](conn)
	if err != nil {
		return "", err
	}
	if resp.Kind != "gsi-response" {
		return "", ErrProtocol
	}
	if !proofValid(resp.ProofC, clientSecret, ns, hello.Client) {
		sendJSON(conn, resultMsg{Kind: "gsi-result", OK: false, Error: ErrBadProof.Error()})
		return "", ErrBadProof
	}
	if err := sendJSON(conn, resultMsg{Kind: "gsi-result", OK: true}); err != nil {
		return "", err
	}
	return hello.Client, nil
}

// frame is a handshake frame type: it appends itself in exactly
// encoding/json's bytes and parses what it appends into a fresh value (see
// wire.JSON). Both take and return the frame by value, so the frames a
// handshake sends and receives stay on its stack.
type frame[T any] interface {
	AppendJSON(dst []byte) []byte
	parse(src []byte) (T, bool)
}

// sendJSON and recvJSON carry the handshake frames.
func sendJSON[T frame[T]](conn *transport.Conn, v T) error {
	net := conn.Network()
	buf := net.GetBuf()
	defer net.PutBuf(buf)
	*buf = v.AppendJSON(*buf)
	return conn.Send(*buf)
}

// resultPrefix starts every gsi-result frame AppendJSON writes, and no
// frame of another kind that parse accepts.
var resultPrefix = []byte(`{"kind":"gsi-result"`)

func recvJSON[T frame[T]](conn *transport.Conn) (T, error) {
	var v T
	raw, err := conn.RecvTimeout(HandshakeTimeout)
	if err != nil {
		if err == transport.ErrRecvTimeout {
			return v, ErrTimeout
		}
		return v, err
	}
	_, wantResult := any(v).(resultMsg)
	if m, ok := v.parse(raw); ok && (wantResult || !bytes.HasPrefix(raw, resultPrefix)) {
		return m, nil
	}
	// A gsi-result frame can arrive where another kind was expected when
	// the server rejects early; surface it as a protocol-level rejection.
	if !wantResult {
		var probe resultMsg
		if json.Unmarshal(raw, &probe) == nil && probe.Kind == "gsi-result" && !probe.OK {
			return v, fmt.Errorf("gsi: rejected by peer: %s", probe.Error)
		}
	}
	p := new(T)
	err = json.Unmarshal(raw, p)
	return *p, err
}

func (m helloMsg) AppendJSON(dst []byte) []byte { return wire.AppendJSON(dst, &m, (*helloMsg).json) }
func (helloMsg) parse(src []byte) (m helloMsg, ok bool) {
	return m, wire.ParseJSON(src, &m, (*helloMsg).json)
}

func (m *helloMsg) json(j *wire.JSON) {
	j.String("kind", &m.Kind)
	j.String("client", &m.Client)
	j.String("nonce_c", &m.NonceC)
}

func (m challengeMsg) AppendJSON(dst []byte) []byte {
	return wire.AppendJSON(dst, &m, (*challengeMsg).json)
}
func (challengeMsg) parse(src []byte) (m challengeMsg, ok bool) {
	return m, wire.ParseJSON(src, &m, (*challengeMsg).json)
}

func (m *challengeMsg) json(j *wire.JSON) {
	j.String("kind", &m.Kind)
	j.String("server", &m.Server)
	j.String("nonce_s", &m.NonceS)
	j.String("proof_s", &m.ProofS)
}

func (m responseMsg) AppendJSON(dst []byte) []byte {
	return wire.AppendJSON(dst, &m, (*responseMsg).json)
}
func (responseMsg) parse(src []byte) (m responseMsg, ok bool) {
	return m, wire.ParseJSON(src, &m, (*responseMsg).json)
}

func (m *responseMsg) json(j *wire.JSON) {
	j.String("kind", &m.Kind)
	j.String("proof_c", &m.ProofC)
}

func (m resultMsg) AppendJSON(dst []byte) []byte { return wire.AppendJSON(dst, &m, (*resultMsg).json) }
func (resultMsg) parse(src []byte) (m resultMsg, ok bool) {
	return m, wire.ParseJSON(src, &m, (*resultMsg).json)
}

func (m *resultMsg) json(j *wire.JSON) {
	j.String("kind", &m.Kind)
	j.Bool("ok", &m.OK)
	j.String("error,omitempty", &m.Error)
}
