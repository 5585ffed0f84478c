#include "tenant/tenant.hpp"

#include <array>

namespace dds::tenant {

namespace {

/// Fetch counters charged per tenant, in labeled-registration order (the
/// order fixes counter names' positions in every snapshot and bench JSON).
constexpr std::array<const char*, 7> kAttributed = {
    "local_gets", "remote_gets",  "bytes_fetched",  "lock_epochs",
    "cache_hits", "cache_misses", "cache_hit_bytes"};

/// The tenant's DataBackend view of the shared store: translates mounted
/// ids by mount_first and charges every load to the tenant, so ANY trainer
/// driving this backend gets per-tenant attribution transparently.
///
/// A load is charged by reading the store's registry around the call: the
/// growth of each global counter in kAttributed goes to its labeled twin,
/// and the sample latencies recorded during the call are copied into the
/// tenant's recorder.  This is exact because a rank is one fiber — nothing
/// else touches this rank's registry while the call runs.
class MountedBackend final : public train::DataBackend {
 public:
  MountedBackend(core::DDStore& store, TenantContext& owner)
      : store_(&store),
        owner_(&owner),
        global_latency_(&store.metrics().latency("sample_load_s")) {
    // Labeled counters: ordinary registry entries named e.g.
    // "bytes_fetched{tenant=alice}" — EpochReport deltas, cross-rank sums,
    // and bench JSON pick them up generically.  Registered at admit time,
    // which must happen before the first epoch (the trainer's delta
    // accounting checks the layout is stable across an epoch).
    const MetricLabel label{"tenant", owner.spec().name};
    MetricsRegistry& metrics = store.metrics();
    for (std::size_t i = 0; i < kAttributed.size(); ++i) {
      global_[i] = &metrics.counter(kAttributed[i]);
      labeled_[i] = &metrics.counter(kAttributed[i], label);
    }
  }

  graph::GraphSample load(std::uint64_t id) override {
    const std::uint64_t mounted = translate(id);
    return charged([&] { return store_->get(mounted); });
  }

  std::vector<graph::GraphSample> load_batch(
      std::span<const std::uint64_t> ids) override {
    std::vector<std::uint64_t> mounted(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) mounted[i] = translate(ids[i]);
    return charged([&] { return store_->get_batch(mounted); });
  }

  std::uint64_t num_samples() const override {
    return owner_->spec().mount_samples;
  }
  std::uint64_t nominal_sample_bytes() const override {
    return store_->nominal_sample_bytes();
  }
  std::string name() const override {
    return "tenant:" + owner_->spec().name;
  }
  const MetricsRegistry* metrics() const override {
    return &store_->metrics();
  }

 private:
  std::uint64_t translate(std::uint64_t id) const {
    DDS_CHECK_MSG(id < owner_->spec().mount_samples,
                  "tenant '" + owner_->spec().name + "' id out of mount");
    return owner_->spec().mount_first + id;
  }

  /// Runs one store call and charges what it recorded to the tenant.
  template <typename Load>
  auto charged(Load load) -> decltype(load()) {
    std::array<std::uint64_t, kAttributed.size()> before{};
    for (std::size_t i = 0; i < before.size(); ++i) {
      before[i] = global_[i]->value();
    }
    const std::size_t recorded_before = global_latency_->count();
    auto out = load();
    for (std::size_t i = 0; i < before.size(); ++i) {
      *labeled_[i] += global_[i]->value() - before[i];
    }
    const std::vector<double>& recorded = global_latency_->raw();
    for (std::size_t i = recorded_before; i < recorded.size(); ++i) {
      owner_->latencies().add(recorded[i]);
    }
    return out;
  }

  core::DDStore* store_;
  TenantContext* owner_;
  const LatencyRecorder* global_latency_;
  std::array<const MetricsRegistry::Counter*, kAttributed.size()> global_{};
  std::array<MetricsRegistry::Counter*, kAttributed.size()> labeled_{};
};

}  // namespace

TenantContext::TenantContext(Passkey, int id, TenantSpec spec,
                             core::DDStore& store)
    : id_(id),
      spec_(std::move(spec)),
      store_(&store),
      sampler_(spec_.mount_samples, spec_.local_batch, spec_.seed),
      backend_(std::make_unique<MountedBackend>(store, *this)) {}

TenantRegistry::TenantRegistry(core::DDStore& store, AdmissionConfig admission)
    : store_(&store), admission_(admission) {
  DDS_CHECK(admission_.max_tenants >= 1);
}

std::uint64_t TenantRegistry::admitted_step_demand_bytes() const {
  std::uint64_t total = 0;
  for (const auto& t : tenants_) {
    total += t.spec().local_batch * store_->nominal_sample_bytes();
  }
  return total;
}

TenantContext& TenantRegistry::admit(const TenantSpec& spec) {
  TenantSpec accepted = spec;
  if (accepted.mount_samples == 0) {
    // Whole-store mount.
    DDS_CHECK_MSG(accepted.mount_first == 0,
                  "whole-store mount must start at id 0");
    accepted.mount_samples = store_->num_samples();
  }
  if (accepted.name.empty()) {
    throw ConfigError("tenant name must be non-empty");
  }
  for (const auto& t : tenants_) {
    if (t.spec().name == accepted.name) {
      throw ConfigError("tenant '" + accepted.name + "' already admitted");
    }
  }
  if (tenants_.size() >= static_cast<std::size_t>(admission_.max_tenants)) {
    throw ConfigError("admission rejected '" + accepted.name +
                      "': max_tenants reached");
  }
  if (accepted.mount_first + accepted.mount_samples > store_->num_samples() ||
      accepted.mount_samples == 0) {
    throw ConfigError("admission rejected '" + accepted.name +
                      "': mount outside the store");
  }
  if (accepted.local_batch == 0) {
    throw ConfigError("admission rejected '" + accepted.name +
                      "': zero batch");
  }
  if (!(accepted.weight > 0.0)) {
    throw ConfigError("admission rejected '" + accepted.name +
                      "': non-positive weight");
  }
  const std::uint64_t demand =
      accepted.local_batch * store_->nominal_sample_bytes();
  if (admission_.step_demand_budget_bytes != 0 &&
      admitted_step_demand_bytes() + demand >
          admission_.step_demand_budget_bytes) {
    throw ConfigError("admission rejected '" + accepted.name +
                      "': step-demand budget exhausted");
  }

  // In-place construction: the context's backend captures the context's
  // address, and deque growth never moves existing elements.
  tenants_.emplace_back(TenantContext::Passkey{},
                        static_cast<int>(tenants_.size()), std::move(accepted),
                        *store_);
  return tenants_.back();
}

}  // namespace dds::tenant
