// Package taxonomy implements the tag (category) hierarchy the MUAA paper
// assumes and the taxonomy-driven interest-vector computation of Section
// II-A (Eqs. 1–3), following Ziegler et al.'s taxonomy-driven profile
// generation as the paper does.
//
// A Taxonomy is a rooted tree whose nodes are tags g_k ∈ Ψ. Customer
// profiles are built from check-in counts: each checked-in tag receives a
// topic score sc(g_k) proportional to its share of the customer's check-ins
// (Eq. 1); that score is then distributed along the tag's root path so that
// path scores sum to sc(g_k) (Eq. 2) and consecutive ancestors are related by
// the propagation recurrence sco(e_{m-1}) = κ·sco(e_m)/(sib(e_m)+1) (Eq. 3).
// Vendor vectors set 1 on the vendor's categories (the paper's fallback when
// detailed labelling is unavailable), optionally bleeding a fraction onto
// ancestors so that related-but-not-identical tags still correlate.
package taxonomy

import (
	"fmt"
	"sort"
	"strings"
)

// TagID identifies a tag within one Taxonomy. IDs are dense, assigned in
// insertion order, and the root is always ID 0.
type TagID int32

// Root is the TagID of every Taxonomy's root tag.
const Root TagID = 0

type node struct {
	name     string
	parent   TagID // Root's parent is itself
	children []TagID
	depth    int
}

// Taxonomy is an immutable rooted tag tree. Build one with Builder, or use
// Foursquare for the default category hierarchy the paper works with.
type Taxonomy struct {
	nodes  []node
	byPath map[string]TagID
}

// NumTags returns the number of tags, including the root; vectors over this
// taxonomy have this length, indexed by TagID.
func (t *Taxonomy) NumTags() int { return len(t.nodes) }

// Name returns the tag's own (last path component) name.
func (t *Taxonomy) Name(id TagID) string { return t.nodes[id].name }

// Parent returns the tag's parent; the root is its own parent.
func (t *Taxonomy) Parent(id TagID) TagID { return t.nodes[id].parent }

// Depth returns the number of edges from the root to id (root has depth 0).
func (t *Taxonomy) Depth(id TagID) int { return t.nodes[id].depth }

// IsLeaf reports whether the tag has no children.
func (t *Taxonomy) IsLeaf(id TagID) bool { return len(t.nodes[id].children) == 0 }

// Siblings returns the number of siblings of id — nodes sharing its parent,
// excluding id itself. The root has zero siblings.
func (t *Taxonomy) Siblings(id TagID) int {
	if id == Root {
		return 0
	}
	return len(t.nodes[t.nodes[id].parent].children) - 1
}

// Path returns the tag IDs from the root down to id, inclusive: the paper's
// E_k = (e_0, e_1, ..., e_q) with e_q = id.
func (t *Taxonomy) Path(id TagID) []TagID {
	depth := t.nodes[id].depth
	out := make([]TagID, depth+1)
	for i := depth; i >= 0; i-- {
		out[i] = id
		id = t.nodes[id].parent
	}
	return out
}

// PathName returns the slash-joined path of id, e.g. "Food/Asian/Noodles".
// The root contributes its own name only when it is the whole path.
func (t *Taxonomy) PathName(id TagID) string {
	ids := t.Path(id)
	if len(ids) == 1 {
		return t.nodes[id].name
	}
	parts := make([]string, 0, len(ids)-1)
	for _, n := range ids[1:] {
		parts = append(parts, t.nodes[n].name)
	}
	return strings.Join(parts, "/")
}

// Lookup resolves a slash-joined path (as produced by PathName) to a TagID.
func (t *Taxonomy) Lookup(path string) (TagID, bool) {
	id, ok := t.byPath[path]
	return id, ok
}

// Leaves returns the IDs of all leaf tags in ascending order.
func (t *Taxonomy) Leaves() []TagID {
	var out []TagID
	for i := range t.nodes {
		if id := TagID(i); t.IsLeaf(id) {
			out = append(out, id)
		}
	}
	return out
}

// Builder assembles a Taxonomy. The zero value is not usable; call
// NewBuilder.
type Builder struct {
	t *Taxonomy
}

// NewBuilder starts a taxonomy whose root tag carries rootName.
func NewBuilder(rootName string) *Builder {
	t := &Taxonomy{byPath: map[string]TagID{}}
	t.nodes = append(t.nodes, node{name: rootName, parent: Root})
	t.byPath[rootName] = Root
	return &Builder{t: t}
}

// Add inserts a child tag under parent and returns its ID. Adding a
// duplicate name under the same parent returns the existing tag's ID, so
// building from repeated path specifications is idempotent.
func (b *Builder) Add(parent TagID, name string) TagID {
	if name == "" || strings.Contains(name, "/") {
		panic(fmt.Sprintf("taxonomy: invalid tag name %q", name))
	}
	if int(parent) >= len(b.t.nodes) || parent < 0 {
		panic(fmt.Sprintf("taxonomy: unknown parent %d", parent))
	}
	for _, c := range b.t.nodes[parent].children {
		if b.t.nodes[c].name == name {
			return c
		}
	}
	id := TagID(len(b.t.nodes))
	b.t.nodes = append(b.t.nodes, node{
		name:   name,
		parent: parent,
		depth:  b.t.nodes[parent].depth + 1,
	})
	b.t.nodes[parent].children = append(b.t.nodes[parent].children, id)
	b.t.byPath[b.t.PathName(id)] = id
	return id
}

// AddPath inserts the slash-separated path under the root, creating missing
// intermediate tags, and returns the final tag's ID.
func (b *Builder) AddPath(path string) TagID {
	cur := Root
	for _, part := range strings.Split(path, "/") {
		cur = b.Add(cur, part)
	}
	return cur
}

// Build finalizes and returns the taxonomy. The builder must not be used
// afterwards.
func (b *Builder) Build() *Taxonomy {
	t := b.t
	b.t = nil
	return t
}

// ProfileConfig parameterizes interest-vector generation.
type ProfileConfig struct {
	// OverallScore is the paper's arbitrary fixed overall score s that Eq. 1
	// distributes over checked-in tags. Zero selects the default of 1.
	OverallScore float64
	// Kappa is the propagation factor κ of Eq. 3 fine-tuning how much
	// interest bleeds up to super-tags. Zero selects the default of 0.75.
	Kappa float64
	// Normalize scales the final vector so its maximum element is exactly 1,
	// keeping every element inside the paper's required [0,1].
	Normalize bool
}

func (c ProfileConfig) withDefaults() ProfileConfig {
	if c.OverallScore == 0 {
		c.OverallScore = 1
	}
	if c.Kappa == 0 {
		c.Kappa = 0.75
	}
	return c
}

// InterestVector computes a customer interest vector ψ_i from check-in
// counts per tag, implementing Eqs. (1)–(3):
//
//  1. topic score sc(g_k) = s · h(g_k) / Σ h,
//  2. path scores along E_k sum to sc(g_k),
//  3. consecutive path scores follow sco(e_{m-1}) = κ·sco(e_m)/(sib(e_m)+1).
//
// The returned slice has length NumTags() and is indexed by TagID. Tags with
// zero or negative counts contribute nothing. A customer with no check-ins
// yields the all-zero vector. With cfg.Normalize the maximum element is 1;
// otherwise elements are the raw summed scores (still ≥ 0).
func (t *Taxonomy) InterestVector(checkins map[TagID]int, cfg ProfileConfig) []float64 {
	cfg = cfg.withDefaults()
	vec := make([]float64, t.NumTags())
	total := 0
	for id, h := range checkins {
		if int(id) >= t.NumTags() || id < 0 {
			panic(fmt.Sprintf("taxonomy: check-in on unknown tag %d", id))
		}
		if h > 0 {
			total += h
		}
	}
	if total == 0 {
		return vec
	}
	// Deterministic iteration: accumulate in TagID order.
	ids := make([]TagID, 0, len(checkins))
	for id := range checkins {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		h := checkins[id]
		if h <= 0 {
			continue
		}
		sc := cfg.OverallScore * float64(h) / float64(total) // Eq. 1
		path := t.Path(id)
		// Relative weights along the path: w_q = 1 at the leaf end, and
		// w_{m-1} = w_m · κ/(sib(e_m)+1) toward the root (Eq. 3). The sum
		// constraint (Eq. 2) fixes the absolute scale.
		w := make([]float64, len(path))
		w[len(path)-1] = 1
		sum := 1.0
		for m := len(path) - 1; m >= 1; m-- {
			w[m-1] = w[m] * cfg.Kappa / float64(t.Siblings(path[m])+1)
			sum += w[m-1]
		}
		for m, e := range path {
			vec[e] += sc * w[m] / sum
		}
	}
	if cfg.Normalize {
		maxV := 0.0
		for _, v := range vec {
			if v > maxV {
				maxV = v
			}
		}
		if maxV > 0 {
			for i := range vec {
				vec[i] /= maxV
			}
		}
	}
	return vec
}

// VendorVector computes a vendor tag vector ψ_j from the vendor's categories.
// Each category tag gets similarity 1 (the paper's simple rule for vendors
// whose detailed labelling is unknown); when ancestorDecay ∈ (0,1], each
// ancestor at distance d additionally receives ancestorDecay^d, clipped at 1,
// so a "Noodles" restaurant still correlates with customers interested in
// "Asian" food. ancestorDecay = 0 disables propagation.
func (t *Taxonomy) VendorVector(tags []TagID, ancestorDecay float64) []float64 {
	if ancestorDecay < 0 || ancestorDecay > 1 {
		panic(fmt.Sprintf("taxonomy: ancestorDecay %g outside [0,1]", ancestorDecay))
	}
	vec := make([]float64, t.NumTags())
	for _, id := range tags {
		if int(id) >= t.NumTags() || id < 0 {
			panic(fmt.Sprintf("taxonomy: vendor tag %d unknown", id))
		}
		vec[id] = 1
		if ancestorDecay == 0 {
			continue
		}
		w := 1.0
		for cur := id; cur != Root; {
			cur = t.Parent(cur)
			w *= ancestorDecay
			if w > vec[cur] {
				vec[cur] = w
			}
		}
	}
	return vec
}
