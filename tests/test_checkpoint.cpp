// Checkpoint/resume suite (core/checkpoint.hpp; docs/ROBUSTNESS.md).
//
// The durability contract under test: a checkpoint captures the complete
// cross-iteration state of the engine, so a run interrupted at any compared
// check and resumed from disk finishes **bit-identically** to the
// uninterrupted run — same iterate bytes, same iteration count, same final
// measure — at any thread count, for the dense and the sparse backend,
// under the residual and the kXChange criteria. The loader side: hostile
// bytes (truncation, corruption, version skew, wrong problem) come back as
// structured diagnoses, never crashes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/diagonal_sea.hpp"
#include "parallel/thread_pool.hpp"
#include "problems/validate.hpp"
#include "sparse/sparse_sea.hpp"

namespace sea {
namespace {

// Bitwise equality: `==` would also pass for -0.0 vs 0.0; the resume proof
// is about identical bytes, so compare the representations.
bool BitEqual(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Large enough that the solve takes dozens of iterations — an interruption
// point in the middle of the run exists for every configuration.
DiagonalProblem DenseFixedProblem() {
  DenseMatrix x0(6, 5), gamma(6, 5);
  double v = 1.0;
  for (double& c : x0.Flat()) c = v++;
  v = 0.0;
  for (double& c : gamma.Flat()) {
    v += 1.0;
    c = 0.4 + 0.31 * (v * v / 30.0);
  }
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (double& t : s0) t *= 1.3;
  for (double& t : d0) t *= 1.3;
  return DiagonalProblem::MakeFixed(x0, gamma, s0, d0);
}

SparseDiagonalProblem SparseFixedProblem() {
  const std::size_t m = 6, n = 7;
  DenseMatrix x0(m, n, 0.0), gamma(m, n, 0.0);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      // ~2/3 dense pattern; the j % m == i band keeps every row and column
      // covered so the totals stay reachable on the pattern.
      if ((i * 3 + j * 5) % 4 == 1 && j % m != i) continue;
      x0(i, j) = 1.0 + static_cast<double>(i + 2 * j);
      gamma(i, j) = 0.5 + 0.07 * static_cast<double>(i * n + j);
    }
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (double& t : s0) t *= 1.25;
  for (double& t : d0) t *= 1.25;
  return SparseDiagonalProblem::MakeFixed(SparseMatrix::FromDense(x0),
                                          SparseMatrix::FromDense(gamma), s0,
                                          d0);
}

SeaOptions BaseOptions() {
  SeaOptions o;
  o.epsilon = 1e-10;
  o.criterion = StopCriterion::kResidualAbs;
  return o;
}

CheckpointState NonTrivialState() {
  CheckpointState st;
  st.fingerprint = 0x0123456789abcdefull;
  st.m = 3;
  st.n = 4;
  st.criterion = StopCriterion::kXChange;
  st.iteration = 42;
  st.checks_compared = 21;
  st.final_residual = 3.5e-7;
  st.stall_streak = 5;
  st.stall_prev = 4.0e-7;
  st.have_snapshot = true;
  st.rung = 2;
  st.rung_attempts = 1;
  st.damp_iters_left = 6;
  st.recovered_count = 3;
  st.recovery_rungs = {1, 1, 2};
  st.lambda = {1.5, -2.25, 0.0};
  st.mu = {0.125, -0.5, 3.75, -0.0};
  st.snapshot = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  return st;
}

// ---------------------------------------------------------------------------
// Serialization round trip + the structured-diagnosis loader contract.

TEST(CheckpointCodec, RoundTripPreservesEveryField) {
  const CheckpointState st = NonTrivialState();
  const auto loaded = DecodeCheckpoint(EncodeCheckpoint(st));
  ASSERT_TRUE(loaded.ok());
  const CheckpointState& r = loaded.state;
  EXPECT_EQ(r.fingerprint, st.fingerprint);
  EXPECT_EQ(r.m, st.m);
  EXPECT_EQ(r.n, st.n);
  EXPECT_EQ(r.criterion, st.criterion);
  EXPECT_EQ(r.iteration, st.iteration);
  EXPECT_EQ(r.checks_compared, st.checks_compared);
  EXPECT_EQ(r.final_residual, st.final_residual);
  EXPECT_EQ(r.stall_streak, st.stall_streak);
  EXPECT_EQ(r.stall_prev, st.stall_prev);
  EXPECT_EQ(r.have_snapshot, st.have_snapshot);
  EXPECT_EQ(r.rung, st.rung);
  EXPECT_EQ(r.rung_attempts, st.rung_attempts);
  EXPECT_EQ(r.damp_iters_left, st.damp_iters_left);
  EXPECT_EQ(r.recovered_count, st.recovered_count);
  EXPECT_EQ(r.recovery_rungs, st.recovery_rungs);
  EXPECT_TRUE(BitEqual(r.lambda, st.lambda));
  EXPECT_TRUE(BitEqual(r.mu, st.mu));
  EXPECT_TRUE(BitEqual(r.snapshot, st.snapshot));
}

TEST(CheckpointCodec, RoundTripPreservesNonFiniteStallPrev) {
  // stall_prev is +inf until the first compared check; a checkpoint written
  // before one must restore that sentinel exactly.
  CheckpointState st = NonTrivialState();
  st.stall_prev = std::numeric_limits<double>::infinity();
  const auto loaded = DecodeCheckpoint(EncodeCheckpoint(st));
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(std::isinf(loaded.state.stall_prev));
}

TEST(CheckpointCodec, RejectsBadMagic) {
  std::string bytes = EncodeCheckpoint(NonTrivialState());
  bytes[0] = 'X';
  const auto loaded = DecodeCheckpoint(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.diagnosis->code, DiagnosisCode::kCheckpointMalformed);
}

TEST(CheckpointCodec, RejectsEveryTruncationWithDiagnosis) {
  const std::string bytes = EncodeCheckpoint(NonTrivialState());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const auto loaded =
        DecodeCheckpoint(std::string_view(bytes).substr(0, len));
    ASSERT_FALSE(loaded.ok()) << "prefix length " << len;
    EXPECT_EQ(loaded.diagnosis->code, DiagnosisCode::kCheckpointMalformed)
        << "prefix length " << len;
  }
}

TEST(CheckpointCodec, CrcCatchesEverySingleByteCorruption) {
  const std::string bytes = EncodeCheckpoint(NonTrivialState());
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string bad = bytes;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    const auto loaded = DecodeCheckpoint(bad);
    EXPECT_FALSE(loaded.ok()) << "corrupted byte " << pos;
  }
}

TEST(CheckpointCodec, RejectsTrailingBytes) {
  std::string bytes = EncodeCheckpoint(NonTrivialState());
  bytes += '\0';
  EXPECT_FALSE(DecodeCheckpoint(bytes).ok());
}

TEST(CheckpointCodec, VersionSkewIsItsOwnDiagnosis) {
  std::string bytes = EncodeCheckpoint(NonTrivialState());
  // The version field sits right after the 8-byte magic (little-endian u32).
  bytes[8] = 2;
  const auto loaded = DecodeCheckpoint(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.diagnosis->code, DiagnosisCode::kCheckpointVersionSkew);
}

TEST(CheckpointCodec, LoadOfMissingFileIsMalformed) {
  const auto loaded =
      LoadCheckpoint(::testing::TempDir() + "/no_such_checkpoint.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.diagnosis->code, DiagnosisCode::kCheckpointMalformed);
}

TEST(CheckpointCodec, ValidateRejectsEveryIdentityMismatch) {
  const CheckpointState st = NonTrivialState();
  EXPECT_FALSE(ValidateCheckpointFor(st, st.fingerprint, st.m, st.n,
                                     st.criterion)
                   .has_value());
  const auto wrong_fp =
      ValidateCheckpointFor(st, st.fingerprint + 1, st.m, st.n, st.criterion);
  ASSERT_TRUE(wrong_fp.has_value());
  EXPECT_EQ(wrong_fp->code, DiagnosisCode::kCheckpointMismatch);
  EXPECT_TRUE(
      ValidateCheckpointFor(st, st.fingerprint, st.m + 1, st.n, st.criterion)
          .has_value());
  EXPECT_TRUE(
      ValidateCheckpointFor(st, st.fingerprint, st.m, st.n + 1, st.criterion)
          .has_value());
  EXPECT_TRUE(ValidateCheckpointFor(st, st.fingerprint, st.m, st.n,
                                    StopCriterion::kResidualRel)
                  .has_value());
}

TEST(CheckpointCodec, FingerprintSeparatesProblems) {
  const auto base = DenseFixedProblem();
  const std::uint64_t fp = FingerprintProblem(base);
  EXPECT_EQ(fp, FingerprintProblem(DenseFixedProblem()));  // deterministic
  DenseMatrix x0(6, 5), gamma(6, 5);
  double v = 1.0;
  for (double& c : x0.Flat()) c = v++;
  v = 0.0;
  for (double& c : gamma.Flat()) {
    v += 1.0;
    c = 0.4 + 0.31 * (v * v / 30.0);
  }
  x0(2, 3) += 1e-9;  // one cell nudged: different problem, different print
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (double& t : s0) t *= 1.3;
  for (double& t : d0) t *= 1.3;
  EXPECT_NE(fp, FingerprintProblem(
                    DiagonalProblem::MakeFixed(x0, gamma, s0, d0)));
  // Dense and sparse fingerprints are domain-separated by the tag byte.
  EXPECT_NE(FingerprintProblem(SparseFixedProblem()), fp);
}

TEST(CheckpointWriterUnit, CadenceGateFiresEveryNthCheck) {
  CheckpointWriter w(::testing::TempDir() + "/cadence.bin", 3);
  std::vector<bool> fired;
  for (int i = 0; i < 7; ++i) fired.push_back(w.ShouldWrite());
  EXPECT_EQ(fired, std::vector<bool>(
                       {false, false, true, false, false, true, false}));
}

TEST(CheckpointWriterUnit, DuplicateIterationIsWrittenOnce) {
  CheckpointWriter w(::testing::TempDir() + "/dedup.bin");
  const CheckpointState st = NonTrivialState();
  EXPECT_TRUE(w.Write(st));
  EXPECT_TRUE(w.Write(st));  // same iteration: skipped, still a success
  EXPECT_EQ(w.writes(), 1u);
  CheckpointState next = st;
  next.iteration += 1;
  EXPECT_TRUE(w.Write(next));
  EXPECT_EQ(w.writes(), 2u);
}

// ---------------------------------------------------------------------------
// The resume proof: interrupt mid-run, restore, finish bit-identically.
// Parameterized over thread count — the checkpoint is oblivious to it by
// design.

class ResumeConfig : public ::testing::TestWithParam<std::size_t> {
 protected:
  std::size_t threads() const { return GetParam(); }

  std::string CheckpointPath(const char* tag) const {
    return ::testing::TempDir() + "/resume_" + std::string(tag) + "_" +
           std::to_string(threads()) + ".bin";
  }
};

std::string ResumeConfigName(
    const ::testing::TestParamInfo<ResumeConfig::ParamType>& info) {
  return "t" + std::to_string(info.param);
}

TEST_P(ResumeConfig, DenseResumeContinuesBitIdentically) {
  const auto p = DenseFixedProblem();
  ThreadPool pool(threads());
  SeaOptions base = BaseOptions();
  if (threads() > 1) base.pool = &pool;

  const auto ref = SolveDiagonal(p, base);
  ASSERT_TRUE(ref.result.converged());
  ASSERT_GE(ref.result.iterations, 4u);

  // Interrupt at the midpoint via the iteration cap; the final checkpoint
  // lands at exactly that iteration.
  const std::string path = CheckpointPath("dense");
  CheckpointWriter writer(path);
  SeaOptions interrupted = base;
  interrupted.checkpoint = &writer;
  interrupted.max_iterations = ref.result.iterations / 2;
  const auto partial = SolveDiagonal(p, interrupted);
  EXPECT_EQ(partial.result.status, SolveStatus::kMaxIterations);
  EXPECT_GE(writer.writes(), 1u);
  EXPECT_EQ(writer.write_failures(), 0u);

  const auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.state.iteration, interrupted.max_iterations);
  EXPECT_LT(loaded.state.iteration, ref.result.iterations);
  EXPECT_FALSE(ValidateCheckpointFor(loaded.state, FingerprintProblem(p),
                                     p.m(), p.n(), base.criterion)
                   .has_value());

  SeaOptions resumed_opts = base;
  resumed_opts.resume = &loaded.state;
  const auto resumed = SolveDiagonal(p, resumed_opts);
  EXPECT_TRUE(resumed.result.converged());
  EXPECT_EQ(resumed.result.iterations, ref.result.iterations);
  EXPECT_EQ(resumed.result.checks_compared, ref.result.checks_compared);
  EXPECT_EQ(resumed.result.final_residual, ref.result.final_residual);
  EXPECT_TRUE(BitEqual(resumed.solution.lambda, ref.solution.lambda));
  EXPECT_TRUE(BitEqual(resumed.solution.mu, ref.solution.mu));
  EXPECT_TRUE(BitEqual(resumed.solution.x.Flat(), ref.solution.x.Flat()));
}

TEST_P(ResumeConfig, SparseResumeContinuesBitIdentically) {
  const auto p = SparseFixedProblem();
  ThreadPool pool(threads());
  SeaOptions base = BaseOptions();
  if (threads() > 1) base.pool = &pool;

  const auto ref = SolveSparse(p, base);
  ASSERT_TRUE(ref.result.converged());
  ASSERT_GE(ref.result.iterations, 4u);

  const std::string path = CheckpointPath("sparse");
  CheckpointWriter writer(path);
  SeaOptions interrupted = base;
  interrupted.checkpoint = &writer;
  interrupted.max_iterations = ref.result.iterations / 2;
  const auto partial = SolveSparse(p, interrupted);
  EXPECT_EQ(partial.result.status, SolveStatus::kMaxIterations);

  const auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_LT(loaded.state.iteration, ref.result.iterations);
  EXPECT_FALSE(ValidateCheckpointFor(loaded.state, FingerprintProblem(p),
                                     p.m(), p.n(), base.criterion)
                   .has_value());

  SeaOptions resumed_opts = base;
  resumed_opts.resume = &loaded.state;
  const auto resumed = SolveSparse(p, resumed_opts);
  EXPECT_TRUE(resumed.result.converged());
  EXPECT_EQ(resumed.result.iterations, ref.result.iterations);
  EXPECT_EQ(resumed.result.final_residual, ref.result.final_residual);
  EXPECT_TRUE(BitEqual(resumed.solution.lambda, ref.solution.lambda));
  EXPECT_TRUE(BitEqual(resumed.solution.mu, ref.solution.mu));
}

TEST_P(ResumeConfig, XChangeResumeRestoresTheSnapshot) {
  // kXChange carries extra cross-check state (the previous materialized
  // iterate); the checkpoint must restore it or the first resumed measure
  // diverges from the uninterrupted run.
  const auto p = DenseFixedProblem();
  ThreadPool pool(threads());
  SeaOptions base = BaseOptions();
  base.criterion = StopCriterion::kXChange;
  base.epsilon = 1e-9;
  if (threads() > 1) base.pool = &pool;

  const auto ref = SolveDiagonal(p, base);
  ASSERT_TRUE(ref.result.converged());
  ASSERT_GE(ref.result.iterations, 4u);

  const std::string path = CheckpointPath("xchange");
  CheckpointWriter writer(path);
  SeaOptions interrupted = base;
  interrupted.checkpoint = &writer;
  interrupted.max_iterations = ref.result.iterations / 2;
  const auto partial = SolveDiagonal(p, interrupted);
  EXPECT_EQ(partial.result.status, SolveStatus::kMaxIterations);

  const auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.state.have_snapshot);
  EXPECT_EQ(loaded.state.snapshot.size(), p.m() * p.n());

  SeaOptions resumed_opts = base;
  resumed_opts.resume = &loaded.state;
  const auto resumed = SolveDiagonal(p, resumed_opts);
  EXPECT_TRUE(resumed.result.converged());
  EXPECT_EQ(resumed.result.iterations, ref.result.iterations);
  EXPECT_EQ(resumed.result.final_residual, ref.result.final_residual);
  EXPECT_TRUE(BitEqual(resumed.solution.lambda, ref.solution.lambda));
  EXPECT_TRUE(BitEqual(resumed.solution.mu, ref.solution.mu));
}

INSTANTIATE_TEST_SUITE_P(
    Checkpoint, ResumeConfig,
    ::testing::Values(std::size_t{1}, std::size_t{4}),
    ResumeConfigName);

// ---------------------------------------------------------------------------
// Final-checkpoint exits: cancellation leaves a resumable state behind.

TEST(CheckpointResume, CancelMidRunLeavesResumableCheckpoint) {
  const auto p = DenseFixedProblem();
  SeaOptions base = BaseOptions();
  const auto ref = SolveDiagonal(p, base);
  ASSERT_TRUE(ref.result.converged());
  ASSERT_GE(ref.result.iterations, 4u);

  const std::string path = ::testing::TempDir() + "/resume_cancel.bin";
  CancelToken cancel;
  // Cadence deliberately larger than the run so only the termination-path
  // write can produce the file.
  CheckpointWriter writer(path, 1000000);
  SeaOptions interrupted = base;
  interrupted.checkpoint = &writer;
  interrupted.cancel = &cancel;
  const std::size_t stop_at = ref.result.iterations / 2;
  interrupted.progress = [&](const IterationEvent& ev) {
    if (ev.iteration >= stop_at) cancel.Cancel();
  };
  const auto partial = SolveDiagonal(p, interrupted);
  EXPECT_EQ(partial.result.status, SolveStatus::kCancelled);
  EXPECT_EQ(writer.writes(), 1u);

  const auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_LT(loaded.state.iteration, ref.result.iterations);

  SeaOptions resumed_opts = base;
  resumed_opts.resume = &loaded.state;
  const auto resumed = SolveDiagonal(p, resumed_opts);
  EXPECT_TRUE(resumed.result.converged());
  EXPECT_EQ(resumed.result.iterations, ref.result.iterations);
  EXPECT_EQ(resumed.result.final_residual, ref.result.final_residual);
  EXPECT_TRUE(BitEqual(resumed.solution.lambda, ref.solution.lambda));
  EXPECT_TRUE(BitEqual(resumed.solution.mu, ref.solution.mu));
}

TEST(CheckpointResume, ConvergedSolveWritesNoFinalCheckpoint) {
  const auto p = DenseFixedProblem();
  const std::string path = ::testing::TempDir() + "/resume_converged.bin";
  std::remove(path.c_str());
  CheckpointWriter writer(path, 1000000);  // cadence never fires
  SeaOptions o = BaseOptions();
  o.checkpoint = &writer;
  const auto run = SolveDiagonal(p, o);
  EXPECT_TRUE(run.result.converged());
  EXPECT_EQ(writer.writes(), 0u);
  std::ifstream check(path);
  EXPECT_FALSE(check.good());
}

}  // namespace
}  // namespace sea
