// Input generation. Everything here runs in the benchmark's parent
// process before any timed phase, and depends only on the seed.

#include "corpus/corpus_snapshot.h"
#include "corpus/ingestion.h"
#include "lexicon/world_lexicon.h"
#include "synth/generator.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workloads.h"

namespace culevo::cbench {

Sizes Sizes::Smoke() {
  Sizes s;
  s.world_scale = 0.05;
  s.serve_recipes = 20000;
  s.delta_recipes = 200;
  s.grid_replicas = 2;
  s.warmup_replicas = 1;
  s.trace_cuisines = 2;
  s.trace_replicas = 2;
  s.trace_requests = 500;
  return s;
}

Result<RecipeCorpus> MakeWorld(const RunContext& ctx) {
  SynthConfig config;
  config.scale = ctx.sizes.world_scale;
  config.seed = kWorldSeed;
  return SynthesizeWorldCorpus(WorldLexicon(), config);
}

Result<ServeInputs> WriteServeInputs(const RunContext& ctx,
                                     const RecipeCorpus& world,
                                     int num_deltas) {
  const SnapshotWriteOptions no_sync{.sync = false};
  Rng rng(DeriveSeed(ctx.seed, 0x5E4E));
  const auto resample = [&rng, &world] {
    return static_cast<uint32_t>(rng.NextBounded(world.num_recipes()));
  };

  ServeInputs inputs;
  RecipeCorpus::Builder builder;
  builder.Reserve(ctx.sizes.serve_recipes,
                  ctx.sizes.serve_recipes * world.total_mentions() /
                      std::max<size_t>(1, world.num_recipes()));
  for (size_t i = 0; i < ctx.sizes.serve_recipes; ++i) {
    const uint32_t r = resample();
    CULEVO_RETURN_IF_ERROR(
        builder.Add(world.cuisine_of(r), world.ingredients_of(r)));
  }
  const RecipeCorpus corpus = builder.Build();
  inputs.snapshot = ctx.dir + "/serve.snap";
  inputs.num_recipes = corpus.num_recipes();
  for (int c = 0; c < kNumCuisines; ++c) {
    const auto used = corpus.UniqueIngredients(static_cast<CuisineId>(c));
    if (used.empty()) {
      return Status::FailedPrecondition(
          StrFormat("serve corpus has no recipes of cuisine %d", c));
    }
    inputs.used[c].assign(used.begin(), used.end());
  }
  CULEVO_RETURN_IF_ERROR(
      WriteCorpusSnapshot(inputs.snapshot, corpus, no_sync));

  uint64_t base_fingerprint = CorpusContentFingerprint(corpus);
  IncrementalCorpus chain = num_deltas > 0
                                ? IncrementalCorpus::FromCorpus(corpus)
                                : IncrementalCorpus();
  for (int d = 0; d < num_deltas; ++d) {
    CorpusDelta delta;
    delta.base_recipes = chain.num_recipes();
    delta.base_fingerprint = base_fingerprint;
    delta.records.resize(ctx.sizes.delta_recipes);
    for (CorpusDeltaRecord& record : delta.records) {
      const uint32_t r = resample();
      record.cuisine = world.cuisine_of(r);
      const auto ids = world.ingredients_of(r);
      record.ingredients.assign(ids.begin(), ids.end());
      CULEVO_RETURN_IF_ERROR(chain.Add(record.cuisine, record.ingredients));
    }
    const std::string path = StrFormat("%s/delta%d.bin", ctx.dir.c_str(), d);
    CULEVO_RETURN_IF_ERROR(WriteCorpusDelta(path, delta, no_sync));
    inputs.deltas.push_back(path);
    inputs.delta_records.push_back(delta.records.size());
    if (d + 1 < num_deltas) {
      Result<RecipeCorpus> next = chain.Materialize();
      if (!next.ok()) return next.status();
      base_fingerprint = CorpusContentFingerprint(*next);
    }
  }
  return inputs;
}

}  // namespace culevo::cbench
