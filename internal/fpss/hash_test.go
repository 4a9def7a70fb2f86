package fpss

import (
	"encoding/hex"
	"testing"

	"repro/internal/graph"
)

// TestTableHashesPinned pins the canonical DATA1/DATA2/DATA3* digests
// of every Figure 1 node, honest and with C declaring ĉ=5 (as in
// TestOrderIndependenceWithDeviator). The bank compares these digests
// across nodes, so any change to the serialization behind HashCosts,
// HashRouting or HashPricing must re-pin them on purpose.
func TestTableHashesPinned(t *testing.T) {
	g := graph.Figure1()
	_, _, c, _, _, _ := figure1IDs(t, g)
	lie := map[graph.NodeID]*Strategy{c: {DeclareCost: func(graph.Cost) graph.Cost { return 5 }}}
	// Per node in ID order (A B C D X Z): costs, routing, pricing.
	cases := []struct {
		name       string
		strategies map[graph.NodeID]*Strategy
		want       [][3]string
	}{
		{"honest", nil, [][3]string{
			{"0b32e8e9ace34bc63c03e5641111c29693fdcb5819c7c0ff4f6e81b26d229317", "452ccd397f212d7a7a86b6d323d1e713985c7a081568dc52fd29ce2f2a12e33b", "151d433b288f93462db68b060bdda909a659d0beb00af327927685204647266f"},
			{"0b32e8e9ace34bc63c03e5641111c29693fdcb5819c7c0ff4f6e81b26d229317", "108516504a42991cdb0bece0702556e97b6b9dfa065c33ed86c0aad51732fdf0", "c5951e7c8537421d52b10157e33b58a60975c9334345114211189687df4b7c3b"},
			{"0b32e8e9ace34bc63c03e5641111c29693fdcb5819c7c0ff4f6e81b26d229317", "2a16e782ef3dcdd197677a614af141b7cbb802322a84deff9be16c021c5884c8", "0aa015505a7edd2d89559256bbcb0e202f2d6c73a0afb2dbf818d0b3905c2b63"},
			{"0b32e8e9ace34bc63c03e5641111c29693fdcb5819c7c0ff4f6e81b26d229317", "83020fa0724a736cc626c40ca5d5ec6c5e736921d532946597e5080aaa2d5c51", "1fdae31360843918f07385702e8886564461dda4e577e79f849bb7f5e89b073d"},
			{"0b32e8e9ace34bc63c03e5641111c29693fdcb5819c7c0ff4f6e81b26d229317", "2396d503e12561852545bd4ab81496383c0a3bc91cb0389b51542612a31bb054", "6464e02981cd968df21ac4fea0479c50c47031740237b394a688c7c25dd6833e"},
			{"0b32e8e9ace34bc63c03e5641111c29693fdcb5819c7c0ff4f6e81b26d229317", "172f7f6dc5c4d5614e557c928439e1af24e89508071a91e8af4984bb3793853c", "c12faef0f038931be30469472adc336f906fb6999930c02de1160f11ae34f3b3"},
		}},
		{"C declares 5", lie, [][3]string{
			{"e275b31faa26607e9c96ad523f452e20e6c353b273bbde2b4887b5d858ca740d", "452ccd397f212d7a7a86b6d323d1e713985c7a081568dc52fd29ce2f2a12e33b", "d5eef9cb7d080a34898dee1ed89a4ef5cfddb242168cde8e11284b2adc10b56c"},
			{"e275b31faa26607e9c96ad523f452e20e6c353b273bbde2b4887b5d858ca740d", "108516504a42991cdb0bece0702556e97b6b9dfa065c33ed86c0aad51732fdf0", "c5951e7c8537421d52b10157e33b58a60975c9334345114211189687df4b7c3b"},
			{"e275b31faa26607e9c96ad523f452e20e6c353b273bbde2b4887b5d858ca740d", "2a16e782ef3dcdd197677a614af141b7cbb802322a84deff9be16c021c5884c8", "0aa015505a7edd2d89559256bbcb0e202f2d6c73a0afb2dbf818d0b3905c2b63"},
			{"e275b31faa26607e9c96ad523f452e20e6c353b273bbde2b4887b5d858ca740d", "78076ddf3f4a422d3473981f41a830a651f2386ced07ec43fbb363620227bb6e", "0b7c1ecc205666b97a6120133611e9c65b88b833be72bcf3bc44328c9ca198af"},
			{"e275b31faa26607e9c96ad523f452e20e6c353b273bbde2b4887b5d858ca740d", "9a1596cbf01bf598db83dcbdae07e6616a96fbb75f812daeefa18baeb5ba0750", "2b7e893d0f3a9eeaefda0446413539173a43c0b1f918ee44b2eb0639a6b6aa6f"},
			{"e275b31faa26607e9c96ad523f452e20e6c353b273bbde2b4887b5d858ca740d", "76fc222eb64aec9e6d9ed532cc514a05a2332e8982efbe70d0490bc49971fe04", "93f0be302f1dcb5047fc897f7b5a365f06d366579596253f1a608fdd36738bd2"},
		}},
	}
	for _, tc := range cases {
		res := runProtocol(t, g, tc.strategies)
		for i, want := range tc.want {
			n := res.Nodes[graph.NodeID(i)]
			hc, hr, hp := n.CostsView().HashCosts(), n.RoutingView().HashRouting(), n.PricingView().HashPricing()
			got := [3]string{hex.EncodeToString(hc[:]), hex.EncodeToString(hr[:]), hex.EncodeToString(hp[:])}
			if got != want {
				t.Errorf("%s: node %s digests (costs, routing, pricing)\n got %q\nwant %q", tc.name, g.Name(graph.NodeID(i)), got, want)
			}
		}
	}
}
