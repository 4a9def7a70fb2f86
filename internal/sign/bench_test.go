package sign

import "testing"

func BenchmarkSign(b *testing.B) {
	a := NewAuthority()
	s, err := a.Register("bench")
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sign(payload)
	}
}

func BenchmarkSignVerify(b *testing.B) {
	a := NewAuthority()
	s, err := a.Register("bench")
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := s.Sign(payload)
		if err := a.Verify(env); err != nil {
			b.Fatal(err)
		}
	}
}
