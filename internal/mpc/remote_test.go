package mpc

import (
	"fmt"
	"sync"
	"testing"

	"parsecureml/internal/comm"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// remoteParty is the reference two-party Beaver exchange every serving
// path is checked against: party i of one triplet multiplication C = A×B
// over conn, connected to the other party running the same function with
// the complementary index. One whole E/F frame each way in a fixed
// send-then-receive order and the textbook op sequence — the serial
// protocol the banded pipeline (wireMul.mul) must stay bit-identical to.
// Returns this party's share C_i.
func remoteParty(party int, conn comm.Framer, in Shares) (*tensor.Matrix, error) {
	if party != 0 && party != 1 {
		return nil, fmt.Errorf("mpc: remote party index %d", party)
	}
	// Local E_i = A_i − U_i, F_i = B_i − V_i (Eq. 4).
	ei := tensor.SubTo(in.A, in.T.U)
	fi := tensor.SubTo(in.B, in.T.V)

	// Exchange. Party 0 sends first, then receives; party 1 mirrors —
	// a deadlock-free fixed order on one duplex connection.
	frame := make([]byte, 0, tensor.EncodedSize(ei)+tensor.EncodedSize(fi))
	frame = tensor.EncodeMatrix(frame, ei)
	frame = tensor.EncodeMatrix(frame, fi)
	var peerFrame []byte
	var err error
	if party == 0 {
		if err = conn.WriteFrame(frame); err != nil {
			return nil, fmt.Errorf("mpc: send E/F: %w", err)
		}
		if peerFrame, err = conn.ReadFrame(); err != nil {
			return nil, fmt.Errorf("mpc: recv E/F: %w", err)
		}
	} else {
		if peerFrame, err = conn.ReadFrame(); err != nil {
			return nil, fmt.Errorf("mpc: recv E/F: %w", err)
		}
		if err = conn.WriteFrame(frame); err != nil {
			return nil, fmt.Errorf("mpc: send E/F: %w", err)
		}
	}
	peerE, n, err := tensor.DecodeMatrix(peerFrame)
	if err != nil {
		return nil, fmt.Errorf("mpc: decode peer E: %w", err)
	}
	peerF, _, err := tensor.DecodeMatrix(peerFrame[n:])
	if err != nil {
		return nil, fmt.Errorf("mpc: decode peer F: %w", err)
	}

	// Reconstruct the public masks (Eq. 5).
	e := tensor.AddTo(ei, peerE)
	f := tensor.AddTo(fi, peerF)

	// C_i = ((−i)·E + A_i)×F + E×B_i + Z_i (Eq. 8).
	d := in.A.Clone()
	if party == 1 {
		tensor.AXPY(d, -1, e)
	}
	c := tensor.MulTo(d, f)
	eb := tensor.MulTo(e, in.B)
	tensor.Add(c, c, eb)
	tensor.Add(c, c, in.T.Z)
	return c, nil
}

// runRemotePair executes both parties concurrently over the given pair of
// framed connections and returns the merged product.
func runRemotePair(t *testing.T, c0, c1 *comm.Conn, in0, in1 Shares) *tensor.Matrix {
	t.Helper()
	var wg sync.WaitGroup
	var r0, r1 *tensor.Matrix
	var e0, e1 error
	wg.Add(2)
	go func() {
		defer wg.Done()
		r0, e0 = remoteParty(0, c0, in0)
	}()
	go func() {
		defer wg.Done()
		r1, e1 = remoteParty(1, c1, in1)
	}()
	wg.Wait()
	if e0 != nil || e1 != nil {
		t.Fatalf("remote parties failed: %v / %v", e0, e1)
	}
	return RemoteCombine(r0, r1)
}

// referenceShares runs the reference exchange over a fresh pipe and
// returns both parties' shares (bit-identity checks need them unmerged).
func referenceShares(tb testing.TB, in0, in1 Shares) (*tensor.Matrix, *tensor.Matrix) {
	tb.Helper()
	c0, c1 := comm.Pipe()
	defer c0.Close()
	defer c1.Close()
	var wg sync.WaitGroup
	var r0, r1 *tensor.Matrix
	var e0, e1 error
	wg.Add(2)
	go func() {
		defer wg.Done()
		r0, e0 = remoteParty(0, c0, in0)
	}()
	go func() {
		defer wg.Done()
		r1, e1 = remoteParty(1, c1, in1)
	}()
	wg.Wait()
	if e0 != nil || e1 != nil {
		tb.Fatalf("reference parties failed: %v / %v", e0, e1)
	}
	return r0, r1
}

// referenceProduct is the merged product of the reference exchange: the
// ground truth a served request must match bit for bit.
func referenceProduct(tb testing.TB, in0, in1 Shares) *tensor.Matrix {
	tb.Helper()
	return RemoteCombine(referenceShares(tb, in0, in1))
}

func newRemoteClient() *Client {
	eng := NewDeployment(SecureMLConfig())
	return eng.Client
}

func TestRemoteTripletMulOverPipe(t *testing.T) {
	p := rng.NewPool(1)
	a := p.NewUniform(13, 21, -1, 1)
	b := p.NewUniform(21, 9, -1, 1)

	client := newRemoteClient()
	in0, in1 := RemoteClientSplit(a, b, client)

	c0, c1 := comm.Pipe()
	defer c0.Close()
	defer c1.Close()
	got := runRemotePair(t, c0, c1, in0, in1)
	want := tensor.MulNaive(a, b)
	if !got.ApproxEqual(want, 1e-3) {
		t.Fatalf("remote product off by %v", got.MaxAbsDiff(want))
	}
}

func TestRemoteTripletMulOverTCP(t *testing.T) {
	p := rng.NewPool(2)
	a := p.NewUniform(32, 48, -1, 1)
	b := p.NewUniform(48, 16, -1, 1)

	client := newRemoteClient()
	in0, in1 := RemoteClientSplit(a, b, client)

	ln, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type accepted struct {
		c   *comm.Conn
		err error
	}
	acceptCh := make(chan accepted, 1)
	go func() {
		c, err := comm.Accept(ln)
		acceptCh <- accepted{c, err}
	}()
	c1, err := comm.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	acc := <-acceptCh
	if acc.err != nil {
		t.Fatal(acc.err)
	}
	defer acc.c.Close()

	got := runRemotePair(t, acc.c, c1, in0, in1)
	want := tensor.MulNaive(a, b)
	if !got.ApproxEqual(want, 1e-3) {
		t.Fatalf("TCP remote product off by %v", got.MaxAbsDiff(want))
	}
}

func TestRemotePartyRejectsBadIndex(t *testing.T) {
	c0, c1 := comm.Pipe()
	defer c0.Close()
	defer c1.Close()
	if _, err := remoteParty(2, c0, Shares{}); err == nil {
		t.Fatal("bad party index must error")
	}
}

// A party must not be able to reconstruct the inputs from what it holds
// and receives: check that its share plus the public masks do not equal
// the true input (sanity, not a proof).
func TestRemoteSharesHideInputs(t *testing.T) {
	p := rng.NewPool(3)
	a := p.NewUniform(8, 8, -1, 1)
	b := p.NewUniform(8, 8, -1, 1)
	client := newRemoteClient()
	in0, _ := RemoteClientSplit(a, b, client)
	if in0.A.ApproxEqual(a, 0.25) {
		t.Fatal("party 0's share of A is close to A itself")
	}
	if in0.B.ApproxEqual(b, 0.25) {
		t.Fatal("party 0's share of B is close to B itself")
	}
}
