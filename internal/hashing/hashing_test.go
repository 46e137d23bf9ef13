package hashing

import (
	"crypto/md5"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"default", DefaultSpec, true},
		{"one function", Spec{1, 8}, true},
		{"max bits", Spec{2, 64}, true},
		{"zero functions", Spec{0, 32}, false},
		{"negative functions", Spec{-1, 32}, false},
		{"zero bits", Spec{4, 0}, false},
		{"too many bits", Spec{4, 65}, false},
		{"ten of sixteen", Spec{10, 16}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if (err == nil) != c.ok {
				t.Fatalf("Validate(%+v) error = %v, want ok=%v", c.spec, err, c.ok)
			}
		})
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(Spec{0, 0}); err == nil {
		t.Fatal("New accepted invalid spec")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on invalid spec")
		}
	}()
	MustNew(Spec{-1, 32})
}

func TestDigestRounds(t *testing.T) {
	cases := []struct {
		spec Spec
		want int
	}{
		{Spec{4, 32}, 1},  // 128 bits exactly
		{Spec{5, 32}, 2},  // 160 bits -> two digests
		{Spec{10, 16}, 2}, // 160 bits
		{Spec{8, 16}, 1},  // 128 bits
		{Spec{1, 8}, 1},
		{Spec{16, 32}, 4}, // 512 bits
	}
	for _, c := range cases {
		if got := c.spec.DigestRounds(); got != c.want {
			t.Errorf("DigestRounds(%+v) = %d, want %d", c.spec, got, c.want)
		}
	}
}

// The paper specifies that the four default functions are exactly the four
// 32-bit words of the MD5 digest, reduced mod m. Pin that wire behaviour.
func TestIndexesMatchMD5Words(t *testing.T) {
	f := MustNew(DefaultSpec)
	const key = "http://www.cs.wisc.edu/~cao/papers/summary-cache/"
	const m = uint64(1 << 20)
	sum := md5.Sum([]byte(key))
	var want []uint64
	for i := 0; i < 4; i++ {
		w := uint64(sum[4*i])<<24 | uint64(sum[4*i+1])<<16 | uint64(sum[4*i+2])<<8 | uint64(sum[4*i+3])
		want = append(want, w%m)
	}
	got, err := f.Indexes(nil, key, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("got %d indexes, want 4", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("index %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestIndexesDeterministic(t *testing.T) {
	f := MustNew(Spec{10, 16})
	a, err := f.Indexes(nil, "http://example.com/a", 999983)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Indexes(nil, "http://example.com/a", 999983)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic index %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestIndexesRange(t *testing.T) {
	f := MustNew(Spec{10, 16})
	for _, m := range []uint64{1, 2, 7, 256, 1 << 30} {
		idx, err := f.Indexes(nil, "key", m)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range idx {
			if v >= m {
				t.Fatalf("index %d out of range for m=%d", v, m)
			}
		}
	}
}

func TestIndexesZeroModulus(t *testing.T) {
	f := MustNew(DefaultSpec)
	if _, err := f.Indexes(nil, "key", 0); err != ErrZeroModulus {
		t.Fatalf("err = %v, want ErrZeroModulus", err)
	}
	var buf [4]uint64
	if _, err := f.IndexesInto(buf[:], "key", 0); err != ErrZeroModulus {
		t.Fatalf("IndexesInto err = %v, want ErrZeroModulus", err)
	}
}

func TestIndexesIntoMatchesIndexes(t *testing.T) {
	f := MustNew(Spec{6, 24})
	const m = 131071
	keys := []string{"", "a", "http://x/y?z=1", "日本語"}
	for _, k := range keys {
		want, err := f.Indexes(nil, k, m)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]uint64, 6)
		n, err := f.IndexesInto(got, k, m)
		if err != nil {
			t.Fatal(err)
		}
		if n != 6 {
			t.Fatalf("n = %d, want 6", n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("key %q index %d: IndexesInto=%d Indexes=%d", k, i, got[i], want[i])
			}
		}
	}
}

func TestIndexesIntoShortDst(t *testing.T) {
	f := MustNew(DefaultSpec)
	var buf [2]uint64
	if _, err := f.IndexesInto(buf[:], "key", 100); err == nil {
		t.Fatal("IndexesInto accepted short dst")
	}
}

func TestIndexesAppend(t *testing.T) {
	f := MustNew(DefaultSpec)
	prefix := []uint64{42}
	out, err := f.Indexes(prefix, "key", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 || out[0] != 42 {
		t.Fatalf("append semantics broken: %v", out)
	}
}

// Beyond-128-bit families must still be deterministic and in-range, and the
// extension digests must differ from the first round (MD5(k) != MD5(k||k)).
func TestExtendedFamilyDistinctRounds(t *testing.T) {
	f4 := MustNew(Spec{4, 32})
	f8 := MustNew(Spec{8, 32})
	const key = "http://example.org/long"
	const m = uint64(1) << 31
	a, _ := f4.Indexes(nil, key, m)
	b, _ := f8.Indexes(nil, key, m)
	for i := 0; i < 4; i++ {
		if a[i] != b[i] {
			t.Fatalf("first four indices must agree between k=4 and k=8 families: %v vs %v", a, b)
		}
	}
	same := true
	for i := 4; i < 8; i++ {
		if b[i] != b[i-4] {
			same = false
		}
	}
	if same {
		t.Fatal("extension round reproduced first digest; MD5(key||key) not applied")
	}
}

// Property: indices are always in range and deterministic for arbitrary keys.
func TestQuickIndexesInvariant(t *testing.T) {
	f := MustNew(Spec{5, 30})
	prop := func(key string, mRaw uint32) bool {
		m := uint64(mRaw%1e6) + 1
		a, err := f.Indexes(nil, key, m)
		if err != nil || len(a) != 5 {
			return false
		}
		b, _ := f.Indexes(nil, key, m)
		for i := range a {
			if a[i] >= m || a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: different keys rarely collide on the full index vector when the
// table is large (sanity that we're actually hashing, not truncating).
func TestQuickDispersion(t *testing.T) {
	f := MustNew(DefaultSpec)
	const m = uint64(1) << 32
	seen := make(map[[4]uint64]string)
	prop := func(key string) bool {
		idx, err := f.Indexes(nil, key, m)
		if err != nil {
			return false
		}
		var v [4]uint64
		copy(v[:], idx)
		if prev, ok := seen[v]; ok {
			return prev == key // identical key is fine
		}
		seen[v] = key
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// refReader is the original bit-at-a-time digest reader, kept as the
// reference model for the word-wise bitReader: it walks the digest stream
// one bit per iteration and rebuilds the concatenated key on the heap for
// every round.
type refReader struct {
	key    string
	round  int
	digest [16]byte
	bitPos int
}

func (r *refReader) refill() {
	r.round++
	r.digest = md5.Sum([]byte(strings.Repeat(r.key, r.round)))
	r.bitPos = 0
}

func (r *refReader) take(n int) uint64 {
	if r.round == 0 || r.bitPos+n > 128 {
		r.refill()
	}
	var v uint64
	for i := 0; i < n; i++ {
		byteIdx := r.bitPos >> 3
		bitIdx := 7 - (r.bitPos & 7)
		v = v<<1 | uint64(r.digest[byteIdx]>>bitIdx&1)
		r.bitPos++
	}
	return v
}

func refIndexes(spec Spec, key string, m uint64) []uint64 {
	r := refReader{key: key}
	out := make([]uint64, spec.FunctionNum)
	for i := range out {
		out[i] = r.take(spec.FunctionBits) % m
	}
	return out
}

// refKey builds a deterministic key of n bytes.
func refKey(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + (i*7+n)%26)
	}
	return string(b)
}

// checkAgainstReference compares Indexes and IndexesInto with the
// reference model for one spec, key and modulus.
func checkAgainstReference(t *testing.T, spec Spec, key string, m uint64) {
	t.Helper()
	f := MustNew(spec)
	want := refIndexes(spec, key, m)
	got, err := f.Indexes(nil, key, m)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%v len(key)=%d m=%d: Indexes = %#x, reference %#x", spec, len(key), m, got, want)
	}
	into := make([]uint64, spec.FunctionNum)
	if _, err := f.IndexesInto(into, key, m); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(into, want) {
		t.Fatalf("%v len(key)=%d m=%d: IndexesInto = %#x, reference %#x", spec, len(key), m, into, want)
	}
}

// Every group width and family size, over keys on both sides of the stack
// buffer: widths that straddle a digest boundary (24, 40, 48, ...) and
// multi-round families (up to 12×64 = 6 digests) must yield exactly the
// reference model's bits.
func TestIndexesMatchReference(t *testing.T) {
	lengths := []int{0, 1, 7, 31, 55, 56, 64, 80, 85, 86, 127, 128, 129, 255, 256, 257, 300, 511, 600}
	if testing.Short() {
		lengths = []int{0, 80, 129, 257, 600}
	}
	for bits := 1; bits <= MaxFunctionBits; bits++ {
		for num := 1; num <= 12; num++ {
			spec := Spec{FunctionNum: num, FunctionBits: bits}
			for _, n := range lengths {
				key := refKey(n)
				// MaxUint64 keeps the raw groups (only an all-ones
				// 64-bit group reduces); 999983 exercises the modulus.
				checkAgainstReference(t, spec, key, math.MaxUint64)
				checkAgainstReference(t, spec, key, 999983)
			}
		}
	}
}

func FuzzIndexesMatchReference(f *testing.F) {
	f.Add("http://www.cs.wisc.edu/~cao/", uint8(4), uint8(32), uint64(1<<23))
	f.Add("", uint8(3), uint8(48), uint64(999983))
	f.Add(strings.Repeat("x", 300), uint8(10), uint8(32), uint64(0))
	f.Add("k", uint8(12), uint8(64), uint64(1))
	f.Fuzz(func(t *testing.T, key string, num, bits uint8, m uint64) {
		if m == 0 {
			m = math.MaxUint64
		}
		spec := Spec{FunctionNum: int(num)%12 + 1, FunctionBits: int(bits)%MaxFunctionBits + 1}
		checkAgainstReference(t, spec, key, m)
	})
}

// Index vectors recorded from the bit-at-a-time implementation. A peer on
// an older build derives its filter indices this way, and the DIRUPDATE
// header carries only the spec, so any drift here would make replicas
// disagree with the filters they mirror.
func TestGoldenIndexes(t *testing.T) {
	keys := []string{"", "http://www.cs.wisc.edu/~cao/papers/summary-cache/", strings.Repeat("http://example.org/long/path/", 10)}
	golden := []struct {
		spec Spec
		want [3][]uint64 // one vector per key, raw groups (m = MaxUint64)
	}{
		{Spec{4, 32}, [3][]uint64{
			{0xd41d8cd9, 0x8f00b204, 0xe9800998, 0xecf8427e},
			{0xc15a68ad, 0x5f7189d9, 0xb20a0a7b, 0x6cfd8cb1},
			{0xfedb5701, 0x8e45f780, 0x4dcf91f3, 0xc57f0638},
		}},
		{Spec{3, 48}, [3][]uint64{
			{0xd41d8cd98f00, 0xb204e9800998, 0xd41d8cd98f00},
			{0xc15a68ad5f71, 0x89d9b20a0a7b, 0x9a86006e0a81},
			{0xfedb57018e45, 0xf7804dcf91f3, 0x3e067a397a29},
		}},
		{Spec{10, 32}, [3][]uint64{
			{0xd41d8cd9, 0x8f00b204, 0xe9800998, 0xecf8427e, 0xd41d8cd9, 0x8f00b204, 0xe9800998, 0xecf8427e, 0xd41d8cd9, 0x8f00b204},
			{0xc15a68ad, 0x5f7189d9, 0xb20a0a7b, 0x6cfd8cb1, 0x9a86006e, 0xa8119b6, 0xdd790779, 0x4e565a9b, 0x2a6da4b4, 0xdde8c847},
			{0xfedb5701, 0x8e45f780, 0x4dcf91f3, 0xc57f0638, 0x3e067a39, 0x7a29ce6b, 0xec36b9ae, 0xf9a40a6, 0x7b9d6de1, 0x26bff530},
		}},
	}
	for _, g := range golden {
		f := MustNew(g.spec)
		for i, key := range keys {
			got, err := f.Indexes(nil, key, math.MaxUint64)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, g.want[i]) {
				t.Errorf("%v len(key)=%d: %#x, golden %#x", g.spec, len(key), got, g.want[i])
			}
		}
	}
}

// IndexesInto is the Bloom layer's hot path: no allocation for a URL-sized
// key, in one digest round or several.
func TestIndexesIntoZeroAlloc(t *testing.T) {
	key := refKey(80)
	for _, spec := range []Spec{DefaultSpec, {10, 32}, {3, 48}} {
		f := MustNew(spec)
		dst := make([]uint64, spec.FunctionNum)
		if n := testing.AllocsPerRun(100, func() {
			if _, err := f.IndexesInto(dst, key, 1<<23); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%v: IndexesInto allocated %v times per run, want 0", spec, n)
		}
	}
}

func BenchmarkIndexesDefault(b *testing.B) {
	f := MustNew(DefaultSpec)
	buf := make([]uint64, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.IndexesInto(buf, "http://www.example.com/some/moderate/path.html", 1<<23)
	}
}

func BenchmarkIndexesTenFunctions(b *testing.B) {
	f := MustNew(Spec{10, 32})
	buf := make([]uint64, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.IndexesInto(buf, "http://www.example.com/some/moderate/path.html", 1<<23)
	}
}
