// Tests for the bignum substrate and §4.7 integer multiplication: BigInt
// arithmetic/IO, Theorem 9's banded-Toeplitz tensor product vs the RAM
// schoolbook, Karatsuba hybrids (Theorem 10), algebraic property checks,
// and the cost bounds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "core/costs.hpp"
#include "intmul/mul.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using tcu::Counters;
using tcu::Device;
using tcu::intmul::BigInt;
using tcu::intmul::mul_karatsuba_ram;
using tcu::intmul::mul_karatsuba_tcu;
using tcu::intmul::mul_schoolbook_ram;
using tcu::intmul::mul_schoolbook_tcu;

// ---------------------------------------------------------------- BigInt

TEST(BigInt, WordRoundTrip) {
  EXPECT_EQ(BigInt(0).to_hex(), "0");
  EXPECT_EQ(BigInt(0xdeadbeefULL).to_hex(), "deadbeef");
  EXPECT_EQ(BigInt(0x1234567890abcdefULL).to_hex(), "1234567890abcdef");
}

TEST(BigInt, HexRoundTrip) {
  const std::string hex = "f00dfacecafebabe0123456789abcdef42";
  EXPECT_EQ(BigInt::from_hex(hex).to_hex(), hex);
  EXPECT_EQ(BigInt::from_hex("000abc").to_hex(), "abc");
  EXPECT_EQ(BigInt::from_hex("0").to_hex(), "0");
  EXPECT_THROW((void)BigInt::from_hex(""), std::invalid_argument);
  EXPECT_THROW((void)BigInt::from_hex("xyz"), std::invalid_argument);
}

TEST(BigInt, BitLengthAndRandomBits) {
  tcu::util::Xoshiro256 rng(1);
  EXPECT_EQ(BigInt(1).bit_length(), 1u);
  EXPECT_EQ(BigInt(255).bit_length(), 8u);
  EXPECT_EQ(BigInt(256).bit_length(), 9u);
  for (std::size_t bits : {1u, 7u, 16u, 17u, 250u, 1024u}) {
    EXPECT_EQ(BigInt::random_bits(bits, rng).bit_length(), bits);
  }
}

TEST(BigInt, AdditionAndSubtraction) {
  tcu::util::Xoshiro256 rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    const auto a64 =
        static_cast<std::uint64_t>(rng.uniform_int(0, 1LL << 62));
    const auto b64 =
        static_cast<std::uint64_t>(rng.uniform_int(0, 1LL << 62));
    const BigInt a(a64), b(b64);
    EXPECT_EQ((a + b).to_hex(), BigInt(a64 + b64).to_hex());
    if (a64 >= b64) {
      EXPECT_EQ((a - b).to_hex(), BigInt(a64 - b64).to_hex());
    } else {
      EXPECT_THROW((void)(a - b), std::invalid_argument);
    }
  }
}

TEST(BigInt, ComparisonOrdering) {
  EXPECT_LT(BigInt(5), BigInt(7));
  EXPECT_LT(BigInt(0xFFFF), BigInt(0x10000));
  EXPECT_EQ(BigInt(42), BigInt(42));
  EXPECT_GT(BigInt::from_hex("100000000"), BigInt(0xFFFFFFFFULL));
}

TEST(BigInt, LimbSplitsRecompose) {
  tcu::util::Xoshiro256 rng(3);
  const BigInt a = BigInt::random_bits(300, rng);
  for (std::size_t cut : {1u, 5u, 10u, 18u}) {
    const BigInt lo = a.low_limbs(cut);
    const BigInt hi = a.high_limbs(cut);
    EXPECT_EQ((hi.shifted_limbs(cut) + lo).to_hex(), a.to_hex());
  }
}

TEST(BigInt, FromLimbsValidates) {
  EXPECT_THROW((void)BigInt::from_limbs({0x10000}), std::invalid_argument);
  EXPECT_EQ(BigInt::from_limbs({0xbeef, 0xdead}).to_hex(), "deadbeef");
}

// ------------------------------------------------- schoolbook, small oracle

TEST(Schoolbook, SmallProductsMatchMachineArithmetic) {
  Counters c;
  Device<std::int64_t> dev({.m = 16});
  tcu::util::Xoshiro256 rng(4);
  for (int trial = 0; trial < 40; ++trial) {
    const auto a64 = static_cast<std::uint64_t>(rng.uniform_int(0, 1LL << 31));
    const auto b64 = static_cast<std::uint64_t>(rng.uniform_int(0, 1LL << 31));
    const BigInt expect(a64 * b64);
    EXPECT_EQ(mul_schoolbook_ram(BigInt(a64), BigInt(b64), c).to_hex(),
              expect.to_hex());
    EXPECT_EQ(mul_schoolbook_tcu(dev, BigInt(a64), BigInt(b64)).to_hex(),
              expect.to_hex());
  }
}

TEST(Schoolbook, ZeroAndOne) {
  Counters c;
  Device<std::int64_t> dev({.m = 16});
  tcu::util::Xoshiro256 rng(5);
  const BigInt a = BigInt::random_bits(200, rng);
  EXPECT_TRUE(mul_schoolbook_tcu(dev, a, BigInt(0)).is_zero());
  EXPECT_TRUE(mul_schoolbook_tcu(dev, BigInt(0), a).is_zero());
  EXPECT_EQ(mul_schoolbook_tcu(dev, a, BigInt(1)).to_hex(), a.to_hex());
  EXPECT_EQ(mul_schoolbook_ram(a, BigInt(1), c).to_hex(), a.to_hex());
}

class IntMulSweep : public ::testing::TestWithParam<
                        std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(IntMulSweep, TcuMatchesRamSchoolbook) {
  const auto [bits_a, bits_b, m] = GetParam();
  tcu::util::Xoshiro256 rng(6000 + bits_a + bits_b + m);
  const BigInt a = BigInt::random_bits(bits_a, rng);
  const BigInt b = BigInt::random_bits(bits_b, rng);
  Counters c;
  Device<std::int64_t> dev({.m = m});
  EXPECT_EQ(mul_schoolbook_tcu(dev, a, b).to_hex(),
            mul_schoolbook_ram(a, b, c).to_hex());
}

TEST_P(IntMulSweep, KaratsubaTcuMatches) {
  const auto [bits_a, bits_b, m] = GetParam();
  tcu::util::Xoshiro256 rng(7000 + bits_a + bits_b + m);
  const BigInt a = BigInt::random_bits(bits_a, rng);
  const BigInt b = BigInt::random_bits(bits_b, rng);
  Counters c;
  Device<std::int64_t> dev({.m = m});
  EXPECT_EQ(mul_karatsuba_tcu(dev, a, b).to_hex(),
            mul_schoolbook_ram(a, b, c).to_hex());
}

INSTANTIATE_TEST_SUITE_P(
    BitLengths, IntMulSweep,
    ::testing::Combine(::testing::Values<std::size_t>(17, 128, 500, 2048),
                       ::testing::Values<std::size_t>(16, 333, 2048),
                       ::testing::Values<std::size_t>(16, 64)));

TEST(Karatsuba, RamMatchesSchoolbook) {
  tcu::util::Xoshiro256 rng(7);
  Counters c1, c2;
  const BigInt a = BigInt::random_bits(4096, rng);
  const BigInt b = BigInt::random_bits(4096, rng);
  EXPECT_EQ(mul_karatsuba_ram(a, b, c1, 8).to_hex(),
            mul_schoolbook_ram(a, b, c2).to_hex());
  // 4096 bits = 256 limbs >> threshold 8: Karatsuba must charge fewer ops.
  EXPECT_LT(c1.cpu_ops, c2.cpu_ops);
}

// -------------------------------------------------- algebraic properties

TEST(IntMulProperties, CommutativityAndDistributivity) {
  tcu::util::Xoshiro256 rng(8);
  Device<std::int64_t> dev({.m = 64});
  Counters c;
  for (int trial = 0; trial < 10; ++trial) {
    const BigInt a = BigInt::random_bits(100 + 31 * trial, rng);
    const BigInt b = BigInt::random_bits(77 + 17 * trial, rng);
    const BigInt d = BigInt::random_bits(50 + 13 * trial, rng);
    // a*b == b*a
    EXPECT_EQ(mul_schoolbook_tcu(dev, a, b).to_hex(),
              mul_schoolbook_tcu(dev, b, a).to_hex());
    // (a+b)*d == a*d + b*d
    const BigInt lhs = mul_schoolbook_tcu(dev, a + b, d);
    const BigInt rhs =
        mul_schoolbook_tcu(dev, a, d) + mul_schoolbook_tcu(dev, b, d);
    EXPECT_EQ(lhs.to_hex(), rhs.to_hex());
    (void)c;
  }
}

TEST(IntMulProperties, SquaresAreConsistentAcrossAlgorithms) {
  tcu::util::Xoshiro256 rng(9);
  Device<std::int64_t> dev({.m = 16});
  Counters c;
  const BigInt a = BigInt::random_bits(999, rng);
  const std::string expect = mul_schoolbook_ram(a, a, c).to_hex();
  EXPECT_EQ(mul_schoolbook_tcu(dev, a, a).to_hex(), expect);
  EXPECT_EQ(mul_karatsuba_tcu(dev, a, a).to_hex(), expect);
  EXPECT_EQ(mul_karatsuba_ram(a, a, c, 4).to_hex(), expect);
}

// ----------------------------------------------------------------- costs

TEST(IntMulCost, SchoolbookTracksTheorem9) {
  // Theorem 9 drops the banded operand's Theta(n s) setup, which the
  // kernel charges as CPU work: (n'+s-1)*s window entries plus n' entries
  // of B', for n' limbs padded to a multiple of s. It is not dominated
  // while n' < m, so it is taken out of the measured time (in the model's
  // units; the prediction's scale is arbitrary) and the rest must track
  // the theorem.
  std::vector<double> predicted, measured;
  for (std::size_t bits : {4096u, 8192u, 16384u, 32768u}) {
    tcu::util::Xoshiro256 rng(90 + bits);
    const BigInt a = BigInt::random_bits(bits, rng);
    const BigInt b = BigInt::random_bits(bits, rng);
    Device<std::int64_t> dev({.m = 256, .latency = 20});
    (void)mul_schoolbook_tcu(dev, a, b);
    const std::uint64_t s = dev.tile_dim();
    const std::uint64_t limbs = std::max(a.limbs().size(), b.limbs().size());
    const std::uint64_t np = (limbs + s - 1) / s * s;
    const std::uint64_t band_setup = (np + s - 1) * s + np;
    predicted.push_back(tcu::costs::thm9_intmul(
        static_cast<double>(bits), 64.0, 256.0, 20.0));
    measured.push_back(
        static_cast<double>(dev.counters().time() - band_setup));
  }
  EXPECT_LT(tcu::util::ratio_spread(predicted, measured), 2.5);
  auto fit = tcu::util::fit_power_law(predicted, measured);
  EXPECT_NEAR(fit.exponent, 1.0, 0.1);
}

TEST(IntMulCost, KaratsubaScalesWithLog3Exponent) {
  std::vector<double> bits_swept, times;
  for (std::size_t bits : {16384u, 32768u, 65536u, 131072u}) {
    tcu::util::Xoshiro256 rng(91 + bits);
    const BigInt a = BigInt::random_bits(bits, rng);
    const BigInt b = BigInt::random_bits(bits, rng);
    Device<std::int64_t> dev({.m = 64});
    (void)mul_karatsuba_tcu(dev, a, b);
    bits_swept.push_back(static_cast<double>(bits));
    times.push_back(static_cast<double>(dev.counters().tensor_time));
  }
  auto fit = tcu::util::fit_power_law(bits_swept, times);
  EXPECT_NEAR(fit.exponent, std::log2(3.0), 0.12);
}

TEST(IntMulCost, KaratsubaBeatsSchoolbookAtScale) {
  tcu::util::Xoshiro256 rng(92);
  const BigInt a = BigInt::random_bits(1 << 17, rng);
  const BigInt b = BigInt::random_bits(1 << 17, rng);
  Device<std::int64_t> dev1({.m = 64}), dev2({.m = 64});
  (void)mul_schoolbook_tcu(dev1, a, b);
  (void)mul_karatsuba_tcu(dev2, a, b);
  EXPECT_LT(dev2.counters().time(), dev1.counters().time());
}

}  // namespace
