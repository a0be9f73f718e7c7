//go:build amd64 && !noasm

#include "textflag.h"
#include "funcdata.h"

// AVX2 kernels for the per-block hot path. Bit-identity with the scalar
// code in dct.go is load-bearing (paper §5.2: encoder and decoder must
// agree exactly), so the arithmetic here mirrors it operation for
// operation:
//
//   - products and sums are evaluated in 64-bit lanes (a dequantized
//     coefficient reaches +/-2^31 and a basis-weighted sum 2^46, so 32-bit
//     accumulation would wrap differently than the Go code's int64);
//   - the biased rounding shift int32((acc + 4096) >> 13) needs only bits
//     13..44 of the 64-bit sum, so a *logical* 64-bit shift followed by a
//     low-dword extract reproduces the arithmetic-shift-then-truncate
//     exactly (AVX2 has no 64-bit arithmetic shift, but none is needed);
//   - the scalar code's sparse skips only ever drop exact-zero
//     contributions, and (0 + 4096) >> 13 == 0, so evaluating densely
//     yields bit-identical samples.

// lowIdx gathers the low dwords of four 64-bit lanes into the low xmm half.
DATA lowIdx<>+0(SB)/4, $0
DATA lowIdx<>+4(SB)/4, $2
DATA lowIdx<>+8(SB)/4, $4
DATA lowIdx<>+12(SB)/4, $6
DATA lowIdx<>+16(SB)/4, $0
DATA lowIdx<>+20(SB)/4, $0
DATA lowIdx<>+24(SB)/4, $0
DATA lowIdx<>+28(SB)/4, $0
GLOBL lowIdx<>(SB), RODATA|NOPTR, $32

// hiIdx gathers the low dwords of 64-bit lanes 2 and 3 (samples x=6,7).
DATA hiIdx<>+0(SB)/4, $4
DATA hiIdx<>+4(SB)/4, $6
DATA hiIdx<>+8(SB)/4, $0
DATA hiIdx<>+12(SB)/4, $0
DATA hiIdx<>+16(SB)/4, $0
DATA hiIdx<>+20(SB)/4, $0
DATA hiIdx<>+24(SB)/4, $0
DATA hiIdx<>+28(SB)/4, $0
GLOBL hiIdx<>(SB), RODATA|NOPTR, $32

// halfQ is the rounding bias 1<<(BasisScaleBits-1) in each int64 lane.
DATA halfQ<>+0(SB)/8, $4096
DATA halfQ<>+8(SB)/8, $4096
DATA halfQ<>+16(SB)/8, $4096
DATA halfQ<>+24(SB)/8, $4096
GLOBL halfQ<>(SB), RODATA|NOPTR, $32

// dcMask clears the DC lane (u=0) of the v=0 coefficient row.
DATA dcMask<>+0(SB)/4, $0x00000000
DATA dcMask<>+4(SB)/4, $0xFFFFFFFF
DATA dcMask<>+8(SB)/4, $0xFFFFFFFF
DATA dcMask<>+12(SB)/4, $0xFFFFFFFF
GLOBL dcMask<>(SB), RODATA|NOPTR, $16

// Gather indices of sample columns 0 and 6 (dword offsets y*8+x).
DATA col0Idx<>+0(SB)/8, $0x0000000800000000
DATA col0Idx<>+8(SB)/8, $0x0000001800000010
DATA col0Idx<>+16(SB)/8, $0x0000002800000020
DATA col0Idx<>+24(SB)/8, $0x0000003800000030
GLOBL col0Idx<>(SB), RODATA|NOPTR, $32

DATA col6Idx<>+0(SB)/8, $0x0000000e00000006
DATA col6Idx<>+8(SB)/8, $0x0000001e00000016
DATA col6Idx<>+16(SB)/8, $0x0000002e00000026
DATA col6Idx<>+24(SB)/8, $0x0000003e00000036
GLOBL col6Idx<>(SB), RODATA|NOPTR, $32

DATA maxI64<>+0(SB)/8, $0x7fffffffffffffff
GLOBL maxI64<>(SB), RODATA|NOPTR, $8
DATA signBit<>+0(SB)/8, $-9223372036854775808
GLOBL signBit<>(SB), RODATA|NOPTR, $8
DATA oneQ<>+0(SB)/8, $1
GLOBL oneQ<>(SB), RODATA|NOPTR, $8

// packIdx reorders the doubly-interleaved VPACKSSDW+VPACKSSWB byte groups
// of nonzeroMask32AVX2 back into source order.
DATA packIdx<>+0(SB)/4, $0
DATA packIdx<>+4(SB)/4, $4
DATA packIdx<>+8(SB)/4, $1
DATA packIdx<>+12(SB)/4, $5
DATA packIdx<>+16(SB)/4, $2
DATA packIdx<>+20(SB)/4, $6
DATA packIdx<>+24(SB)/4, $3
DATA packIdx<>+28(SB)/4, $7
GLOBL packIdx<>(SB), RODATA|NOPTR, $32

// func borderGradientAVX2(coef *int16, q *[64]uint16, dst *Block, above, left *[8]int32, sel int, grad *Gradient)
//
// The border transform, shared by InverseBorder and BorderGradient.
// Column pass: acc[y][u] = sum_v Basis[v][y] * (coef[v][u]*q[v][u]) with
// the DC term masked out, evaluated four columns (one u half) at a time in
// eight int64 accumulator vectors; all-zero coefficient rows are skipped
// (they contribute exactly zero). tmp[y][u] = low32((acc+4096)>>13) is
// spilled to the frame. Row pass: for each y, a[x] = sum_u Basis[u][x] *
// tmp[y][u] over the columns u with a nonzero AC coefficient (every other
// column's intermediates are exactly zero), again in int64 lanes; the
// column set is the same for every row, so the loop runs without
// data-dependent branches. The rounded samples are stored to the border cells only — full rows for y in
// {0,1,6,7}, x in {0,1,6,7} for interior rows — exactly the cells the
// scalar path writes. A nil dst puts the samples in the frame.
//
// Unless sel has gradBorderOnly (4), the gradient tail follows: the 32
// edge samples are copied to g.Edge, and each selected neighbour's eight
// predictions nb - c0 + half(c1 - c0) are folded into g's sum, min and
// max, in int64 lanes like borderGradientGo.
TEXT ·borderGradientAVX2(SB), $1024-56
	NO_LOCAL_POINTERS
	MOVQ dst+16(FP), DI
	TESTQ DI, DI
	JNE havedst
	LEAQ px-1024(SP), DI
havedst:
	MOVQ DI, R12              // samples, for the gradient tail
	XORQ CX, CX               // bit u set: column u has a nonzero AC term
	MOVQ $0, R13              // u half: 0 = columns 0..3, 1 = columns 4..7

halfloop:
	MOVQ coef+0(FP), SI
	MOVQ q+8(FP), DX
	LEAQ (SI)(R13*8), SI      // + half offset (4 int16 = 8 bytes)
	LEAQ (DX)(R13*8), DX
	MOVQ $·Basis(SB), BX
	VPXOR Y0, Y0, Y0          // acc[0][uhalf] .. acc[7][uhalf]
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	VPXOR X11, X11, X11       // OR of the half's dequantized rows
	MOVQ $0, R8               // v

colv:
	VPMOVSXWD (SI), X9        // 4 coefficients, sign-extended
	VPMOVZXWD (DX), X10       // 4 quantizer steps, zero-extended
	VPMULLD X10, X9, X9       // dequantized: fits int32 (32767*65535 < 2^31)
	TESTQ R8, R8
	JNE nodc
	TESTQ R13, R13
	JNE nodc
	VPAND dcMask<>(SB), X9, X9 // AC only: DC lane contributes nothing
nodc:
	VPOR X9, X11, X11
	VPTEST X9, X9
	JEQ colskip               // all-zero row: contributes exactly zero
	VPMOVSXDQ X9, Y9          // int64 lanes, value in the even dwords
	VPBROADCASTD 0(BX), Y10   // Basis[v][0]
	VPMULDQ Y10, Y9, Y10
	VPADDQ Y10, Y0, Y0
	VPBROADCASTD 4(BX), Y10
	VPMULDQ Y10, Y9, Y10
	VPADDQ Y10, Y1, Y1
	VPBROADCASTD 8(BX), Y10
	VPMULDQ Y10, Y9, Y10
	VPADDQ Y10, Y2, Y2
	VPBROADCASTD 12(BX), Y10
	VPMULDQ Y10, Y9, Y10
	VPADDQ Y10, Y3, Y3
	VPBROADCASTD 16(BX), Y10
	VPMULDQ Y10, Y9, Y10
	VPADDQ Y10, Y4, Y4
	VPBROADCASTD 20(BX), Y10
	VPMULDQ Y10, Y9, Y10
	VPADDQ Y10, Y5, Y5
	VPBROADCASTD 24(BX), Y10
	VPMULDQ Y10, Y9, Y10
	VPADDQ Y10, Y6, Y6
	VPBROADCASTD 28(BX), Y10
	VPMULDQ Y10, Y9, Y10
	VPADDQ Y10, Y7, Y7
colskip:
	ADDQ $16, SI              // next coefficient row
	ADDQ $16, DX
	ADDQ $32, BX              // next basis row
	INCQ R8
	CMPQ R8, $8
	JLT colv

	// tmp[y][uhalf] = low32((acc + 4096) >> 13)
	LEAQ tmp-768(SP), R11
	MOVQ R13, R14
	SHLQ $4, R14
	ADDQ R14, R11             // &tmp[0*8 + uhalf*4]
	VMOVDQU lowIdx<>(SB), Y14
	VPADDQ halfQ<>(SB), Y0, Y0
	VPSRLQ $13, Y0, Y0
	VPERMD Y0, Y14, Y0
	VMOVDQU X0, 0(R11)
	VPADDQ halfQ<>(SB), Y1, Y1
	VPSRLQ $13, Y1, Y1
	VPERMD Y1, Y14, Y1
	VMOVDQU X1, 32(R11)
	VPADDQ halfQ<>(SB), Y2, Y2
	VPSRLQ $13, Y2, Y2
	VPERMD Y2, Y14, Y2
	VMOVDQU X2, 64(R11)
	VPADDQ halfQ<>(SB), Y3, Y3
	VPSRLQ $13, Y3, Y3
	VPERMD Y3, Y14, Y3
	VMOVDQU X3, 96(R11)
	VPADDQ halfQ<>(SB), Y4, Y4
	VPSRLQ $13, Y4, Y4
	VPERMD Y4, Y14, Y4
	VMOVDQU X4, 128(R11)
	VPADDQ halfQ<>(SB), Y5, Y5
	VPSRLQ $13, Y5, Y5
	VPERMD Y5, Y14, Y5
	VMOVDQU X5, 160(R11)
	VPADDQ halfQ<>(SB), Y6, Y6
	VPSRLQ $13, Y6, Y6
	VPERMD Y6, Y14, Y6
	VMOVDQU X6, 192(R11)
	VPADDQ halfQ<>(SB), Y7, Y7
	VPSRLQ $13, Y7, Y7
	VPERMD Y7, Y14, Y7
	VMOVDQU X7, 224(R11)

	// Columns with no nonzero AC term have all-zero intermediates.
	VPXOR X12, X12, X12
	VPCMPEQD X12, X11, X11
	VMOVMSKPS X11, AX         // bit set: column all zero
	NOTL AX
	ANDL $15, AX
	TESTQ R13, R13
	JEQ lowhalf
	SHLL $4, AX
lowhalf:
	ORL AX, CX
	INCQ R13
	CMPQ R13, $2
	JLT halfloop

	// Spread each Basis row into int64 lanes once; the row pass reuses
	// them as direct VPMULDQ memory operands.
	MOVQ $·Basis(SB), BX
	LEAQ bspread-512(SP), R11
	MOVQ $8, R9
bsp:
	VPMOVSXDQ 0(BX), Y9       // Basis[u][0..3]
	VMOVDQU Y9, 0(R11)
	VPMOVSXDQ 16(BX), Y9      // Basis[u][4..7]
	VMOVDQU Y9, 32(R11)
	ADDQ $32, BX
	ADDQ $64, R11
	DECQ R9
	JNE bsp

	// Row pass.
	VMOVDQU lowIdx<>(SB), Y14
	VMOVDQU hiIdx<>(SB), Y15
	VMOVDQU halfQ<>(SB), Y13
	LEAQ tmp-768(SP), R11
	MOVQ $0, R10              // y
	LEAQ bspread-512(SP), R15
rowy:
	VPXOR Y0, Y0, Y0          // a[0..3]
	VPXOR Y1, Y1, Y1          // a[4..7]
	MOVQ CX, BX               // the nonzero columns; the rest contribute zero
rowu:
	BSFQ BX, R8               // u
	JEQ rowdone
	VPBROADCASTD (R11)(R8*4), Y9
	SHLQ $6, R8               // bspread row offset
	VPMULDQ 0(R15)(R8*1), Y9, Y10
	VPADDQ Y10, Y0, Y0
	VPMULDQ 32(R15)(R8*1), Y9, Y10
	VPADDQ Y10, Y1, Y1
	LEAQ -1(BX), AX
	ANDQ AX, BX
	JMP rowu
rowdone:
	VPADDQ Y13, Y0, Y0
	VPSRLQ $13, Y0, Y0
	VPADDQ Y13, Y1, Y1
	VPSRLQ $13, Y1, Y1
	LEAQ -2(R10), AX
	CMPQ AX, $4
	JCS interior              // y in 2..5: only x = 0,1,6,7 are read
	VPERMD Y0, Y14, Y0
	VMOVDQU X0, 0(DI)
	VPERMD Y1, Y14, Y1
	VMOVDQU X1, 16(DI)
	JMP rownext
interior:
	VPERMD Y0, Y14, Y0
	VMOVQ X0, 0(DI)           // x = 0, 1
	VPERMD Y1, Y15, Y1
	VMOVQ X1, 24(DI)          // x = 6, 7
rownext:
	ADDQ $32, R11
	ADDQ $32, DI
	INCQ R10
	CMPQ R10, $8
	JLT rowy

	MOVQ sel+40(FP), AX
	TESTQ $4, AX
	JNE done                  // gradBorderOnly

	// g.Edge: rows 6 and 7 are contiguous; columns 6 and 7 are gathered.
	MOVQ grad+48(FP), R8
	VMOVDQU 192(R12), Y0
	VMOVDQU Y0, 24(R8)
	VMOVDQU 224(R12), Y0
	VMOVDQU Y0, 56(R8)
	VMOVDQU col6Idx<>(SB), Y4
	VPCMPEQD Y5, Y5, Y5
	VPGATHERDD Y5, (R12)(Y4*4), Y6
	VMOVDQU Y6, 88(R8)
	VPCMPEQD Y5, Y5, Y5
	VPSUBD Y5, Y4, Y4         // column 7: index + 1
	VPCMPEQD Y5, Y5, Y5
	VPGATHERDD Y5, (R12)(Y4*4), Y6
	VMOVDQU Y6, 120(R8)

	// Y8 = sum, Y9 = min, Y10 = max over the selected predictions.
	VPXOR Y8, Y8, Y8
	VPBROADCASTQ maxI64<>(SB), Y9
	VPBROADCASTQ signBit<>(SB), Y10
	VPBROADCASTQ oneQ<>(SB), Y11
	VPBROADCASTQ signBit<>(SB), Y12

	MOVQ sel+40(FP), AX
	TESTQ $1, AX
	JEQ noabove
	MOVQ above+24(FP), SI
	VPMOVSXDQ 0(R12), Y0      // c0: row 0, x = 0..3
	VPMOVSXDQ 32(R12), Y1     // c1: row 1
	VPMOVSXDQ 0(SI), Y2       // neighbour extrapolation
	CALL vote<>(SB)
	VPMOVSXDQ 16(R12), Y0     // x = 4..7
	VPMOVSXDQ 48(R12), Y1
	VPMOVSXDQ 16(SI), Y2
	CALL vote<>(SB)
noabove:
	MOVQ sel+40(FP), AX
	TESTQ $2, AX
	JEQ noleft
	MOVQ left+32(FP), SI
	VMOVDQU col0Idx<>(SB), Y4
	VPCMPEQD Y5, Y5, Y5
	VPGATHERDD Y5, (R12)(Y4*4), Y6 // c0: column 0
	VPCMPEQD Y5, Y5, Y5
	VPSUBD Y5, Y4, Y4
	VPCMPEQD Y5, Y5, Y5
	VPGATHERDD Y5, (R12)(Y4*4), Y7 // c1: column 1
	VPMOVSXDQ X6, Y0          // y = 0..3
	VPMOVSXDQ X7, Y1
	VPMOVSXDQ 0(SI), Y2
	CALL vote<>(SB)
	VEXTRACTI128 $1, Y6, X6   // y = 4..7
	VEXTRACTI128 $1, Y7, X7
	VPMOVSXDQ X6, Y0
	VPMOVSXDQ X7, Y1
	VPMOVSXDQ 16(SI), Y2
	CALL vote<>(SB)
noleft:
	// Horizontal reductions to g.Sum, g.Min, g.Max.
	VEXTRACTI128 $1, Y8, X0
	VPADDQ X0, X8, X8
	VPSHUFD $0x4E, X8, X0
	VPADDQ X0, X8, X8
	VMOVQ X8, 0(R8)
	VEXTRACTI128 $1, Y9, X0
	VPCMPGTQ X0, X9, X1
	VPBLENDVB X1, X0, X9, X9
	VPSHUFD $0x4E, X9, X0
	VPCMPGTQ X0, X9, X1
	VPBLENDVB X1, X0, X9, X9
	VMOVQ X9, 8(R8)
	VEXTRACTI128 $1, Y10, X0
	VPCMPGTQ X10, X0, X1
	VPBLENDVB X1, X0, X10, X10
	VPSHUFD $0x4E, X10, X0
	VPCMPGTQ X10, X0, X1
	VPBLENDVB X1, X0, X10, X10
	VMOVQ X10, 16(R8)
done:
	VZEROUPPER
	RET

// vote folds four predictions into Y8 (sum), Y9 (min) and Y10 (max):
// p = nb - c0 + half(c1 - c0) with c0 in Y0, c1 in Y1, nb in Y2, where
// half rounds half away from zero: (d + (d >= 0)) >> 1, the arithmetic
// shift built from a logical one plus the sign bit (Y12); Y11 holds 1s.
// Clobbers Y1 and Y3.
TEXT vote<>(SB), NOSPLIT|NOFRAME, $0-0
	VPSUBQ Y0, Y1, Y1         // d = c1 - c0
	VPSRLQ $63, Y1, Y3        // 1 where d < 0
	VPADDQ Y11, Y1, Y1
	VPSUBQ Y3, Y1, Y1         // d + (d >= 0)
	VPAND Y12, Y1, Y3
	VPSRLQ $1, Y1, Y1
	VPOR Y3, Y1, Y1           // half(d)
	VPADDQ Y2, Y1, Y1
	VPSUBQ Y0, Y1, Y1         // p
	VPADDQ Y1, Y8, Y8
	VPCMPGTQ Y1, Y9, Y3       // min > p
	VPBLENDVB Y3, Y1, Y9, Y9
	VPCMPGTQ Y10, Y1, Y3      // p > max
	VPBLENDVB Y3, Y1, Y10, Y10
	RET

// func nonzeroMask64AVX2(coef *int16) uint64
//
// Raster-order occupancy mask of 64 int16 coefficients: compare words
// against zero, pack to bytes (fixing the in-lane interleave with VPERMQ),
// movemask, invert.
TEXT ·nonzeroMask64AVX2(SB), NOSPLIT, $0-16
	MOVQ coef+0(FP), SI
	VPXOR Y2, Y2, Y2
	VMOVDQU 0(SI), Y0         // words 0..15
	VMOVDQU 32(SI), Y1        // words 16..31
	VPCMPEQW Y2, Y0, Y0
	VPCMPEQW Y2, Y1, Y1
	VPACKSSWB Y1, Y0, Y0
	VPERMQ $0xD8, Y0, Y0
	VPMOVMSKB Y0, AX          // bit per word, set where zero
	VMOVDQU 64(SI), Y0        // words 32..47
	VMOVDQU 96(SI), Y1        // words 48..63
	VPCMPEQW Y2, Y0, Y0
	VPCMPEQW Y2, Y1, Y1
	VPACKSSWB Y1, Y0, Y0
	VPERMQ $0xD8, Y0, Y0
	VPMOVMSKB Y0, CX
	SHLQ $32, CX
	ORQ CX, AX
	NOTQ AX
	MOVQ AX, ret+8(FP)
	VZEROUPPER
	RET

// func nonzeroMask32AVX2(b *Block) uint64
//
// Same mask over 64 int32 samples: compare dwords, pack twice (dword ->
// word -> byte), undo the double interleave with VPERMD, movemask, invert.
TEXT ·nonzeroMask32AVX2(SB), NOSPLIT, $0-16
	MOVQ b+0(FP), SI
	VPXOR Y2, Y2, Y2
	VMOVDQU packIdx<>(SB), Y5
	VMOVDQU 0(SI), Y0         // dwords 0..7
	VMOVDQU 32(SI), Y1        // dwords 8..15
	VMOVDQU 64(SI), Y3        // dwords 16..23
	VMOVDQU 96(SI), Y4        // dwords 24..31
	VPCMPEQD Y2, Y0, Y0
	VPCMPEQD Y2, Y1, Y1
	VPCMPEQD Y2, Y3, Y3
	VPCMPEQD Y2, Y4, Y4
	VPACKSSDW Y1, Y0, Y0
	VPACKSSDW Y4, Y3, Y3
	VPACKSSWB Y3, Y0, Y0
	VPERMD Y0, Y5, Y0
	VPMOVMSKB Y0, AX          // bit per dword, set where zero
	VMOVDQU 128(SI), Y0       // dwords 32..39
	VMOVDQU 160(SI), Y1       // dwords 40..47
	VMOVDQU 192(SI), Y3       // dwords 48..55
	VMOVDQU 224(SI), Y4       // dwords 56..63
	VPCMPEQD Y2, Y0, Y0
	VPCMPEQD Y2, Y1, Y1
	VPCMPEQD Y2, Y3, Y3
	VPCMPEQD Y2, Y4, Y4
	VPACKSSDW Y1, Y0, Y0
	VPACKSSDW Y4, Y3, Y3
	VPACKSSWB Y3, Y0, Y0
	VPERMD Y0, Y5, Y0
	VPMOVMSKB Y0, CX
	SHLQ $32, CX
	ORQ CX, AX
	NOTQ AX
	MOVQ AX, ret+8(FP)
	VZEROUPPER
	RET
