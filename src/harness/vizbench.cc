#include "harness/vizbench.h"

#include "common/rng.h"
#include "vizapp/server.h"

namespace sv::harness {
namespace {

viz::VizConfig make_app_config(const VizWorkloadConfig& cfg) {
  viz::VizConfig app;
  app.transport = cfg.transport;
  app.image_bytes = cfg.image_bytes;
  app.block_bytes = cfg.block_bytes;
  app.stage_compute = cfg.compute;
  app.viz_compute = cfg.compute;
  return app;
}

// No-op for the default (empty) plan, so fault-free configs keep their
// historical digests.
void install_faults(net::Cluster& cluster, const VizWorkloadConfig& cfg) {
  cluster.install_faults(cfg.faults, cfg.seed);
}

}  // namespace

PacedResult run_paced_updates(const VizWorkloadConfig& cfg, double target_ups,
                              int updates, int warmup) {
  PacedResult result;
  result.target_ups = target_ups;

  sim::Simulation s(cfg.queue_kind);
  net::Cluster cluster(&s, cfg.cluster_nodes);
  install_faults(cluster, cfg);
  begin_obs(s, cfg.obs);
  sockets::SocketFactory factory(&s, &cluster);
  viz::VizApp update_app(&s, &cluster, &factory, make_app_config(cfg));
  viz::VizApp probe_app(&s, &cluster, &factory, make_app_config(cfg));
  update_app.start();
  probe_app.start();

  const auto interval =
      SimTime::nanoseconds(static_cast<std::int64_t>(1e9 / target_ups));
  std::vector<SimTime> completions;
  bool updates_finished = false;

  s.spawn("update_submitter", [&] {
    for (int i = 0; i < updates; ++i) {
      update_app.submit(viz::Query{viz::QueryType::kComplete, 0, 4});
      if (i + 1 < updates) s.delay(interval);
    }
  });
  s.spawn("update_collector", [&] {
    for (int i = 0; i < updates; ++i) {
      auto done = update_app.wait_done();
      if (!done) break;
      completions.push_back(done->second);
    }
    updates_finished = true;
    update_app.close();
    probe_app.close();
  });
  s.spawn("probe_client", [&] {
    Rng rng(cfg.seed);
    const auto blocks = probe_app.image().block_count();
    // Let the update stream establish itself before probing.
    s.delay(interval / 2);
    while (!updates_finished) {
      const SimTime t0 = s.now();
      probe_app.submit(viz::Query{viz::QueryType::kPartial,
                                  rng.next_below(blocks), 4});
      auto done = probe_app.wait_done();
      if (!done) break;
      if (!updates_finished) {
        result.partial_latencies.add(s.now() - t0);
      }
      // Probe cadence well below the update interval so probes perturb,
      // not dominate, the workload.
      s.delay(interval / 4);
    }
  });
  s.run();
  export_obs(s, cfg.obs);
  result.events_fired = s.events_fired();
  result.trace_digest = s.engine().trace_digest();
  result.end_time = s.now();

  if (static_cast<int>(completions.size()) > warmup + 1) {
    const auto span = completions.back() -
                      completions[static_cast<std::size_t>(warmup)];
    const auto n = completions.size() - static_cast<std::size_t>(warmup) - 1;
    if (span.ns() > 0) {
      result.achieved_ups =
          static_cast<double>(n) * 1e9 / static_cast<double>(span.ns());
    }
  }
  result.met_target = result.achieved_ups >= target_ups * 0.95;
  return result;
}

SaturationResult run_saturation(const VizWorkloadConfig& cfg, int updates,
                                int warmup, int pipeline_depth) {
  SaturationResult result;
  // The idle probe is a separate throwaway simulation; artifacts describe
  // the saturation run itself.
  VizWorkloadConfig idle_cfg = cfg;
  idle_cfg.obs = ObsArtifacts{};
  result.uncontended_partial_latency = measure_idle_partial_latency(idle_cfg);

  sim::Simulation s(cfg.queue_kind);
  net::Cluster cluster(&s, cfg.cluster_nodes);
  install_faults(cluster, cfg);
  begin_obs(s, cfg.obs);
  sockets::SocketFactory factory(&s, &cluster);
  viz::VizApp app(&s, &cluster, &factory, make_app_config(cfg));
  app.start();

  std::vector<SimTime> completions;
  s.spawn("client", [&] {
    int submitted = 0;
    for (; submitted < pipeline_depth && submitted < updates; ++submitted) {
      app.submit(viz::Query{viz::QueryType::kComplete, 0, 4});
    }
    for (int done = 0; done < updates; ++done) {
      auto c = app.wait_done();
      if (!c) break;
      completions.push_back(c->second);
      if (submitted < updates) {
        app.submit(viz::Query{viz::QueryType::kComplete, 0, 4});
        ++submitted;
      }
    }
    app.close();
  });
  s.run();
  export_obs(s, cfg.obs);

  if (static_cast<int>(completions.size()) > warmup + 1) {
    const auto span = completions.back() -
                      completions[static_cast<std::size_t>(warmup)];
    const auto n = completions.size() - static_cast<std::size_t>(warmup) - 1;
    if (span.ns() > 0) {
      result.updates_per_sec =
          static_cast<double>(n) * 1e9 / static_cast<double>(span.ns());
    }
  }
  return result;
}

Samples run_query_mix(const VizWorkloadConfig& cfg, double complete_fraction,
                      int queries) {
  Samples responses;
  sim::Simulation s(cfg.queue_kind);
  net::Cluster cluster(&s, cfg.cluster_nodes);
  install_faults(cluster, cfg);
  begin_obs(s, cfg.obs);
  sockets::SocketFactory factory(&s, &cluster);
  viz::VizApp app(&s, &cluster, &factory, make_app_config(cfg));
  app.start();

  s.spawn("client", [&] {
    Rng rng(cfg.seed);
    const auto blocks = app.image().block_count();
    for (int i = 0; i < queries; ++i) {
      const bool complete = rng.bernoulli(complete_fraction);
      viz::Query q;
      q.type = complete ? viz::QueryType::kComplete : viz::QueryType::kZoom;
      q.start_block = rng.next_below(blocks);
      q.zoom_chunks = 4;
      const SimTime t0 = s.now();
      app.submit(q);
      app.wait_done();
      responses.add(s.now() - t0);
    }
    app.close();
  });
  s.run();
  export_obs(s, cfg.obs);
  return responses;
}

SimTime measure_idle_partial_latency(const VizWorkloadConfig& cfg) {
  sim::Simulation s(cfg.queue_kind);
  net::Cluster cluster(&s, cfg.cluster_nodes);
  install_faults(cluster, cfg);
  begin_obs(s, cfg.obs);
  sockets::SocketFactory factory(&s, &cluster);
  viz::VizApp app(&s, &cluster, &factory, make_app_config(cfg));
  app.start();
  SimTime latency;
  s.spawn("client", [&] {
    const SimTime t0 = s.now();
    app.submit(viz::Query{viz::QueryType::kPartial, 0, 4});
    app.wait_done();
    latency = s.now() - t0;
    app.close();
  });
  s.run();
  export_obs(s, cfg.obs);
  return latency;
}

}  // namespace sv::harness
