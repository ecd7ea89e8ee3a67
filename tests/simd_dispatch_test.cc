// Bit-identity of the runtime-dispatched SIMD kernels across every
// dispatch tier the machine supports: dims 2–10 × IND/COR/ANTI × all
// scoring functions, each tier forced via simd::ForceTier. The scalar
// tier is the reference; every wider tier must reproduce its scores,
// dominance verdicts, range-query survivors and (through the engine)
// IoStats bit for bit. The batched kernels are further pinned, per
// tier, to the one-entry-at-a-time ScoringFunction::Score/MaxScore and
// TransformDim.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "dataset/generators.h"
#include "gir/engine.h"
#include "gir/fp_frontier.h"
#include "index/flat_rtree.h"
#include "index/mbb.h"
#include "skyline/skyline.h"
#include "topk/tree_kernels.h"

namespace gir {
namespace {

std::vector<simd::Tier> AvailableTiers() {
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  const int detected = static_cast<int>(simd::DetectedTier());
  if (detected >= static_cast<int>(simd::Tier::kAvx2)) {
    tiers.push_back(simd::Tier::kAvx2);
  }
  return tiers;
}

// Restores the startup dispatch tier when a test scope ends, so a
// failing assertion can't leak a forced tier into later tests.
class TierGuard {
 public:
  TierGuard() : saved_(simd::ActiveTier()) {}
  ~TierGuard() { simd::ForceTier(saved_); }

 private:
  simd::Tier saved_;
};

Dataset MakeDist(const std::string& dist, size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  if (dist == "COR") return GenerateCorrelated(n, d, rng);
  if (dist == "ANTI") return GenerateAnticorrelated(n, d, rng);
  return GenerateIndependent(n, d, rng);
}

Vec MakeQuery(Rng& rng, size_t d) {
  Vec w(d);
  for (size_t j = 0; j < d; ++j) w[j] = rng.Uniform(0.05, 1.0);
  return w;
}

const char* kDists[] = {"IND", "COR", "ANTI"};
const char* kScorings[] = {"Linear", "Polynomial", "Mixed"};

TEST(SimdDispatchTest, ForceTierClampsAndReports) {
  TierGuard guard;
  EXPECT_EQ(simd::ForceTier(simd::Tier::kScalar), simd::Tier::kScalar);
  // Whatever the machine, forcing the detected tier is always honored.
  EXPECT_EQ(simd::ForceTier(simd::DetectedTier()), simd::DetectedTier());
  // Requests beyond the CPU clamp down, never up.
  simd::Tier avx2 = simd::ForceTier(simd::Tier::kAvx2);
  EXPECT_LE(static_cast<int>(avx2), static_cast<int>(simd::DetectedTier()));
  EXPECT_STREQ(simd::TierName(simd::Tier::kScalar), "scalar");
  EXPECT_STREQ(simd::TierName(simd::Tier::kAvx2), "avx2");
}

// Runs this test binary (listing its tests only) in a child process
// with GIR_SIMD=`value`; returns the child's exit status and fills
// `output` with what it printed.
int RunSelfWithSimdEnv(const std::string& value, std::string* output) {
  char exe[4096];
  const ssize_t len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) return -1;
  exe[len] = '\0';
  const std::string cmd = "GIR_SIMD='" + value + "' '" + exe +
                          "' --gtest_list_tests 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[512];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    output->append(buf, n);
  }
  const int status = ::pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// An unknown GIR_SIMD value — a typo, or the retired sse2 tier — stops
// the process at startup with the accepted values, instead of running
// the detected tier in silence. Accepted values start normally.
TEST(SimdDispatchTest, UnknownGirSimdValueFailsAtStartup) {
  for (const char* bad : {"bogus", "sse2"}) {
    SCOPED_TRACE(bad);
    std::string out;
    EXPECT_EQ(RunSelfWithSimdEnv(bad, &out), 2);
    EXPECT_NE(out.find("scalar, avx2, auto"), std::string::npos) << out;
    EXPECT_EQ(out.find("SimdDispatchTest."), std::string::npos) << out;
  }
  for (const char* good : {"scalar", "avx2", "auto"}) {
    SCOPED_TRACE(good);
    std::string out;
    EXPECT_EQ(RunSelfWithSimdEnv(good, &out), 0);
    EXPECT_NE(out.find("SimdDispatchTest."), std::string::npos) << out;
  }
}

// Entry scoring (the SoA hi-plane kernel) and the per-dimension batch
// transforms: every tier bitwise-equal to the forced-scalar reference
// and to the scalar ScoringFunction path (Score for a leaf's records,
// MaxScore for an internal node's boxes, TransformDim for a leaf's
// g-mapped planes).
TEST(SimdDispatchTest, EntryScoresAndTransformsBitIdentical) {
  TierGuard guard;
  const std::vector<simd::Tier> tiers = AvailableTiers();
  for (size_t d = 2; d <= 10; ++d) {
    for (const char* dist : kDists) {
      Dataset data = MakeDist(dist, 1200, d, 1700 + d);
      DiskManager disk;
      RTree tree = RTree::BulkLoad(&data, &disk);
      FlatRTree flat = FlatRTree::Freeze(tree);
      Rng qrng(90 + d);
      Vec w = MakeQuery(qrng, d);
      for (const char* sname : kScorings) {
        std::unique_ptr<ScoringFunction> scoring = MakeScoring(sname, d);

        // Scalar reference sweep over every node of the flat image.
        simd::ForceTier(simd::Tier::kScalar);
        std::vector<std::vector<double>> reference;
        ScoreBuffer buf;
        for (size_t p = 0; p < flat.node_count(); ++p) {
          ComputeEntryScores(*scoring, flat.PeekNode(static_cast<PageId>(p)),
                             w, &buf);
          reference.push_back(buf.scores);
        }

        std::vector<double> planes;
        for (simd::Tier tier : tiers) {
          simd::ForceTier(tier);
          for (size_t p = 0; p < flat.node_count(); ++p) {
            const FlatRTree::NodeView node =
                flat.PeekNode(static_cast<PageId>(p));
            ComputeEntryScores(*scoring, node, w, &buf);
            ASSERT_EQ(buf.scores.size(), reference[p].size());
            const GPlanes gp =
                node.is_leaf() ? LeafGPlanes(*scoring, node, d, &planes)
                               : GPlanes{};
            for (size_t e = 0; e < buf.scores.size(); ++e) {
              const double scalar =
                  node.is_leaf()
                      ? scoring->Score(data.Get(node.child(e)), w)
                      : scoring->MaxScore(node.EntryMbb(e), w);
              ASSERT_EQ(buf.scores[e], reference[p][e])
                  << "tier=" << simd::TierName(tier) << " dist=" << dist
                  << " scoring=" << sname << " d=" << d << " node=" << p
                  << " entry=" << e;
              ASSERT_EQ(buf.scores[e], scalar)
                  << "tier=" << simd::TierName(tier) << " dist=" << dist
                  << " scoring=" << sname << " d=" << d << " node=" << p
                  << " entry=" << e;
              if (!node.is_leaf()) continue;
              VecView record = data.Get(node.child(e));
              for (size_t j = 0; j < d; ++j) {
                ASSERT_EQ(gp.base[j * gp.stride + e],
                          scoring->TransformDim(j, record[j]))
                    << "tier=" << simd::TierName(tier) << " scoring="
                    << sname << " d=" << d << " node=" << p << " entry=" << e
                    << " j=" << j;
              }
            }
          }

          // Batch transform == per-element scalar TransformDim.
          const double* column = data.Column(0);
          const size_t n = std::min<size_t>(data.size(), 257);
          std::vector<double> out(n);
          for (size_t j = 0; j < d; ++j) {
            scoring->TransformDimBatch(j, column, n, out.data());
            for (size_t e = 0; e < n; ++e) {
              ASSERT_EQ(out[e], scoring->TransformDim(j, column[e]))
                  << "tier=" << simd::TierName(tier) << " scoring=" << sname
                  << " j=" << j;
            }
          }
        }
      }
    }
  }
}

// Dominance verdicts: SkylineSet evolution (members after every insert)
// and DominatedByMember probes identical on every tier.
TEST(SimdDispatchTest, DominanceVerdictsIdentical) {
  TierGuard guard;
  const std::vector<simd::Tier> tiers = AvailableTiers();
  for (size_t d = 2; d <= 10; ++d) {
    for (const char* dist : kDists) {
      Dataset data = MakeDist(dist, 900, d, 4400 + d);
      simd::ForceTier(simd::Tier::kScalar);
      SkylineSet reference(&data);
      std::vector<bool> inserted;
      for (size_t i = 0; i < data.size(); ++i) {
        inserted.push_back(reference.Insert(static_cast<RecordId>(i)));
      }
      for (simd::Tier tier : tiers) {
        simd::ForceTier(tier);
        SkylineSet sky(&data);
        for (size_t i = 0; i < data.size(); ++i) {
          ASSERT_EQ(sky.Insert(static_cast<RecordId>(i)), inserted[i])
              << "tier=" << simd::TierName(tier) << " dist=" << dist
              << " d=" << d << " record=" << i;
        }
        ASSERT_EQ(sky.members(), reference.members());
        Rng prng(7 + d);
        for (int t = 0; t < 64; ++t) {
          Vec p(d);
          for (double& x : p) x = prng.Uniform();
          EXPECT_EQ(sky.DominatedByMember(p),
                    reference.DominatedByMember(p));
        }
      }
    }
  }
}

// The SoA interval-overlap sweep behind NodePages::RangeQuery: same
// survivors on every tier, and they match a brute-force scan.
TEST(SimdDispatchTest, RangeQueryMaskIdentical) {
  TierGuard guard;
  const std::vector<simd::Tier> tiers = AvailableTiers();
  for (size_t d = 2; d <= 10; d += 2) {
    Dataset data = MakeDist("IND", 1500, d, 95 + d);
    DiskManager disk;
    RTree tree = RTree::BulkLoad(&data, &disk);
    FlatRTree flat = FlatRTree::Freeze(tree);
    Rng rng(31 + d);
    for (int t = 0; t < 8; ++t) {
      Mbb box = Mbb::EmptyBox(d);
      for (size_t j = 0; j < d; ++j) {
        double a = rng.Uniform();
        double b = rng.Uniform();
        box.lo[j] = std::min(a, b);
        box.hi[j] = std::max(a, b);
      }
      std::vector<RecordId> expected;
      for (size_t i = 0; i < data.size(); ++i) {
        if (box.ContainsPoint(data.Get(static_cast<RecordId>(i)))) {
          expected.push_back(static_cast<RecordId>(i));
        }
      }
      std::sort(expected.begin(), expected.end());
      for (simd::Tier tier : tiers) {
        simd::ForceTier(tier);
        std::vector<RecordId> got = flat.RangeQuery(box);
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, expected) << "tier=" << simd::TierName(tier)
                                 << " d=" << d << " trial=" << t;
      }
    }
  }
}

// FP's per-leaf group-test kernel: every tier returns the verdicts of
// IncidentStar::Insert's scalar point test (dot = 0; dot += n_j * x_j;
// dot - offset > eps), including points placed on a facet, pools that
// skip facets, a stride wider than the leaf and lane-count remainders.
TEST(SimdDispatchTest, MarkAboveFacetsVerdictsIdentical) {
  TierGuard guard;
  const std::vector<simd::Tier> tiers = AvailableTiers();
  Rng rng(4242);
  for (size_t d = 2; d <= 9; ++d) {
    const size_t facets = 13;
    std::vector<double> normals(facets * d);
    std::vector<double> offsets(facets);
    for (double& x : normals) x = rng.Uniform(-1.0, 1.0);
    for (double& x : offsets) x = rng.Uniform(-0.5, 1.5);
    std::vector<int> pool;
    for (size_t f = 0; f < facets; ++f) {
      if (rng.UniformInt(3) != 0) pool.push_back(static_cast<int>(f));
    }
    for (size_t n : {1u, 2u, 3u, 5u, 8u, 31u, 64u, 67u}) {
      const size_t stride = n + 5;
      std::vector<double> planes(d * stride);
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < d; ++j) planes[j * stride + i] = rng.Uniform();
        if (i % 3 == 0 && !pool.empty()) {
          // Move point i onto a pool facet along its last coordinate,
          // so dot - offset lands on or next to 0 (and to eps).
          const int f = pool[rng.UniformInt(pool.size())];
          const double* nf = normals.data() + f * d;
          if (nf[d - 1] != 0.0) {
            double rest = 0.0;
            for (size_t j = 0; j + 1 < d; ++j) {
              rest += nf[j] * planes[j * stride + i];
            }
            planes[(d - 1) * stride + i] = (offsets[f] - rest) / nf[d - 1];
          }
        }
      }
      for (double eps : {1e-10, 0.0}) {
        std::vector<uint8_t> want(n, 0);
        for (int f : pool) {
          const double* nf = normals.data() + f * d;
          for (size_t i = 0; i < n; ++i) {
            double dot = 0.0;
            for (size_t j = 0; j < d; ++j) {
              dot += nf[j] * planes[j * stride + i];
            }
            if (dot - offsets[f] > eps) want[i] = 1;
          }
        }
        for (simd::Tier tier : tiers) {
          simd::ForceTier(tier);
          std::vector<uint8_t> got(n, 0);
          got[0] = 1;  // a set byte stays set
          simd::MarkAboveFacets(normals.data(), offsets.data(), pool.data(),
                                pool.size(), d, eps, planes.data(), stride,
                                got.data(), n);
          for (size_t i = 0; i < n; ++i) {
            const uint8_t expect = i == 0 ? 1 : want[i];
            ASSERT_EQ(got[i], expect)
                << simd::TierName(tier) << " d=" << d << " n=" << n
                << " point " << i;
          }
        }
      }
    }
  }
}

// MarkBoxesAboveFacets against IncidentStar's scalar box predicate
// (bound = 0; bound += max(n_j * lo_j, n_j * hi_j); bound - offset >
// eps), over every live facet: boxes whose top bound lands on a facet,
// degenerate (point) boxes, zero coordinates that make -0 and +0
// products, pre-marked boxes, a stride wider than the batch and
// lane-count remainders.
TEST(SimdDispatchTest, MarkBoxesAboveFacetsVerdictsIdentical) {
  TierGuard guard;
  const std::vector<simd::Tier> tiers = AvailableTiers();
  Rng rng(4343);
  for (size_t d = 2; d <= 9; ++d) {
    for (size_t facets : {0u, 1u, 13u}) {
      std::vector<double> normals(facets * d);
      std::vector<double> offsets(facets);
      for (double& x : normals) x = rng.Uniform(-1.0, 1.0);
      for (double& x : offsets) x = rng.Uniform(0.0, 2.0);
      for (size_t n : {1u, 2u, 3u, 5u, 8u, 31u, 64u, 67u}) {
        const size_t stride = n + 3;
        std::vector<double> lo(d * stride);
        std::vector<double> hi(d * stride);
        for (size_t i = 0; i < n; ++i) {
          for (size_t j = 0; j < d; ++j) {
            double a = rng.Uniform();
            double b = rng.Uniform();
            if (i % 5 == 1) a = b;                 // a point box
            if (i % 7 == 2) a = 0.0;               // -0 * 0 products
            lo[j * stride + i] = std::min(a, b);
            hi[j * stride + i] = std::max(a, b);
          }
          if (i % 3 == 0 && facets > 0) {
            // Put the box's bound for one facet on (or next to) its
            // offset by moving the hi corner along the last coordinate.
            const size_t f = rng.UniformInt(facets);
            const double* nf = normals.data() + f * d;
            if (nf[d - 1] > 0.0) {
              double rest = 0.0;
              for (size_t j = 0; j + 1 < d; ++j) {
                rest += std::max(nf[j] * lo[j * stride + i],
                                 nf[j] * hi[j * stride + i]);
              }
              const double top = (offsets[f] - rest) / nf[d - 1];
              hi[(d - 1) * stride + i] = top;
              lo[(d - 1) * stride + i] = std::min(top, 0.0);
            }
          }
        }
        for (double eps : {1e-10, 0.0}) {
          std::vector<uint8_t> want(n, 0);
          for (size_t f = 0; f < facets; ++f) {
            const double* nf = normals.data() + f * d;
            for (size_t i = 0; i < n; ++i) {
              double bound = 0.0;
              for (size_t j = 0; j < d; ++j) {
                bound += std::max(nf[j] * lo[j * stride + i],
                                  nf[j] * hi[j * stride + i]);
              }
              if (bound - offsets[f] > eps) want[i] = 1;
            }
          }
          for (simd::Tier tier : tiers) {
            simd::ForceTier(tier);
            std::vector<uint8_t> got(n, 0);
            got[n - 1] = 1;  // a set byte stays set
            simd::MarkBoxesAboveFacets(normals.data(), offsets.data(), facets,
                                       d, eps, lo.data(), hi.data(), stride,
                                       got.data(), n);
            for (size_t i = 0; i < n; ++i) {
              const uint8_t expect = i + 1 == n ? 1 : want[i];
              ASSERT_EQ(got[i], expect)
                  << simd::TierName(tier) << " d=" << d << " facets="
                  << facets << " n=" << n << " box " << i;
            }
          }
        }
      }
    }
  }
}

// Whole-engine sweep: identical top-k ids and scores, identical region
// constraints, identical IoStats on every tier (kernel bit-identity
// implies identical traversal decisions, so page-read counts match).
TEST(SimdDispatchTest, EngineResultsAndIoStatsIdentical) {
  TierGuard guard;
  const std::vector<simd::Tier> tiers = AvailableTiers();
  for (size_t d = 2; d <= 6; ++d) {
    for (const char* dist : kDists) {
      for (const char* sname : kScorings) {
        Dataset data = MakeDist(dist, 900, d, 2600 + d);
        Rng qrng(55 + d);
        Vec w = MakeQuery(qrng, d);

        simd::ForceTier(simd::Tier::kScalar);
        DiskManager ref_disk;
        auto ref_engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &ref_disk, MakeScoring(sname, d)));
        Result<GirComputation> ref = ref_engine->ComputeGir(w, 8,
                                                           Phase2Method::kFP);
        ASSERT_TRUE(ref.ok()) << ref.status().message();

        for (simd::Tier tier : tiers) {
          simd::ForceTier(tier);
          DiskManager disk;
          auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring(sname, d)));
          Result<GirComputation> got = engine->ComputeGir(w, 8,
                                                         Phase2Method::kFP);
          ASSERT_TRUE(got.ok()) << got.status().message();
          SCOPED_TRACE(std::string("tier=") + simd::TierName(tier) +
                       " dist=" + dist + " scoring=" + sname +
                       " d=" + std::to_string(d));
          ASSERT_EQ(got->topk.result, ref->topk.result);
          ASSERT_EQ(got->topk.scores.size(), ref->topk.scores.size());
          for (size_t i = 0; i < got->topk.scores.size(); ++i) {
            ASSERT_EQ(got->topk.scores[i], ref->topk.scores[i]);
          }
          EXPECT_EQ(got->stats.topk_reads, ref->stats.topk_reads);
          EXPECT_EQ(got->stats.phase2_reads, ref->stats.phase2_reads);
          EXPECT_EQ(got->stats.candidates, ref->stats.candidates);
          ASSERT_EQ(got->region.constraints().size(),
                    ref->region.constraints().size());
          for (size_t i = 0; i < got->region.constraints().size(); ++i) {
            const Vec& a = got->region.constraints()[i].normal;
            const Vec& b = ref->region.constraints()[i].normal;
            ASSERT_EQ(a.size(), b.size());
            ASSERT_EQ(std::memcmp(a.data(), b.data(),
                                  a.size() * sizeof(double)),
                      0);
          }
        }
      }
    }
  }
}

// The same identity where FP's per-leaf group test does real work:
// enough records for many leaves, d = 5, Linear and Polynomial scoring
// (the Polynomial leaf planes go through the tiered PowIter), for FP
// and for GIR*'s FP variant. Constraint provenance and the star's live
// facet count must match too.
TEST(SimdDispatchTest, PooledPhase2IdenticalAcrossTiersAtD5) {
  TierGuard guard;
  const std::vector<simd::Tier> tiers = AvailableTiers();
  const size_t d = 5;
  Dataset data = MakeDist("IND", 6000, d, 2705);
  for (const char* sname : {"Linear", "Polynomial"}) {
    for (bool star : {false, true}) {
      Rng qrng(91);
      const Vec w = MakeQuery(qrng, d);
      const size_t k = star ? 4 : 10;
      auto compute = [&](simd::Tier tier) {
        simd::ForceTier(tier);
        DiskManager disk;
        auto engine = OpenEngineOrDie(
            EngineConfig::FromDataset(&data, &disk, MakeScoring(sname, d)));
        return star ? engine->ComputeGirStar(w, k, Phase2Method::kFP)
                    : engine->ComputeGir(w, k, Phase2Method::kFP);
      };
      Result<GirComputation> ref = compute(simd::Tier::kScalar);
      ASSERT_TRUE(ref.ok()) << ref.status().message();
      EXPECT_GT(ref->stats.phase2_reads, 5u);
      for (simd::Tier tier : tiers) {
        Result<GirComputation> got = compute(tier);
        ASSERT_TRUE(got.ok()) << got.status().message();
        SCOPED_TRACE(std::string("tier=") + simd::TierName(tier) +
                     " scoring=" + sname + (star ? " GIR*" : " GIR"));
        ASSERT_EQ(got->topk.result, ref->topk.result);
        EXPECT_EQ(got->stats.phase2_reads, ref->stats.phase2_reads);
        EXPECT_EQ(got->stats.candidates, ref->stats.candidates);
        EXPECT_EQ(got->stats.star_facets, ref->stats.star_facets);
        const std::vector<GirConstraint>& a = got->region.constraints();
        const std::vector<GirConstraint>& b = ref->region.constraints();
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) {
          ASSERT_EQ(std::memcmp(a[i].normal.data(), b[i].normal.data(),
                                d * sizeof(double)),
                    0);
          EXPECT_EQ(a[i].provenance.position, b[i].provenance.position);
          EXPECT_EQ(a[i].provenance.challenger, b[i].provenance.challenger);
        }
      }
    }
  }
}

}  // namespace
}  // namespace gir
