package mpc

import "parsecureml/internal/tensor"

// Client side of a remote multiplication: the share split the client
// uploads to both serving parties (RequestMul) and the merge of their
// result shares. The parties run the Beaver exchange between themselves
// (wireMul.mul, served by ServeClients).

// RemoteClientSplit prepares both parties' inputs for one remote
// multiplication: shares of A and B plus a Beaver triplet, exactly the
// client's offline role. pool drives all randomness.
func RemoteClientSplit(a, b *tensor.Matrix, c *Client) (in0, in1 Shares) {
	a0, a1, _ := c.Split(a)
	b0, b1, _ := c.Split(b)
	t0, t1, _ := c.GenGemmTriplet(a.Rows, a.Cols, b.Cols, false)
	return Shares{A: a0, B: b0, T: t0}, Shares{A: a1, B: b1, T: t1}
}

// RemoteCombine merges the parties' result shares (the client's final
// step).
func RemoteCombine(c0, c1 *tensor.Matrix) *tensor.Matrix {
	return tensor.AddTo(c0, c1)
}
