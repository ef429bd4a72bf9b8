#include "core/model_io.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <ostream>

#include "core/planner.hpp"
#include "util/rng.hpp"

namespace qres {
namespace {

ResourceCatalog make_catalog() {
  ResourceCatalog catalog;
  catalog.add("cpu@server", ResourceKind::kCpu);
  catalog.add("bw", ResourceKind::kNetworkBandwidth);
  return catalog;
}

const char* kModel = R"(
# A two-component streaming service.
service Streaming
source_param frame_rate resolution
source 30 1080

component Encoder host=0
param frame_rate resolution
out 30 1080
out 15 480
translate 0 0 cpu@server=60    # full quality
translate 0 1 cpu@server=10

component Player host=1
param frame_rate resolution
out 30 1080
out 15 480
translate 0 0 bw=40
translate 1 1 bw=10

link 0 1
ranking 0 1
)";

TEST(ModelIo, ParsesAFullModel) {
  const ResourceCatalog catalog = make_catalog();
  const ModelDescription model = parse_model(kModel, catalog);
  EXPECT_EQ(model.service_name, "Streaming");
  ASSERT_EQ(model.components.size(), 2u);
  EXPECT_EQ(model.components[0].name, "Encoder");
  EXPECT_EQ(model.components[0].host, (HostId{0}));
  EXPECT_EQ(model.components[0].out_levels.size(), 2u);
  EXPECT_EQ(model.components[0].table.size(), 2u);
  EXPECT_EQ(model.components[1].name, "Player");
  EXPECT_EQ(model.edges.size(), 1u);
  EXPECT_EQ(model.ranking, (std::vector<LevelIndex>{0, 1}));
  EXPECT_EQ(model.source_values, (std::vector<double>{30, 1080}));
}

TEST(ModelIo, InstantiatedServicePlans) {
  const ResourceCatalog catalog = make_catalog();
  const ModelDescription model = parse_model(kModel, catalog);
  const ServiceDefinition service = model.instantiate();
  EXPECT_TRUE(service.is_chain());

  AvailabilityView view;
  view.set(*catalog.find("cpu@server"), 100.0);
  view.set(*catalog.find("bw"), 100.0);
  const Qrg qrg(service, view);
  Rng rng(1);
  const PlanResult result = BasicPlanner().plan(qrg, rng);
  ASSERT_TRUE(result.plan.has_value());
  EXPECT_EQ(result.plan->end_to_end_rank, 0u);
  EXPECT_DOUBLE_EQ(result.plan->bottleneck_psi, 0.6);  // cpu 60/100
}

TEST(ModelIo, FootprintCollectsAllResources) {
  const ResourceCatalog catalog = make_catalog();
  const ModelDescription model = parse_model(kModel, catalog);
  const auto footprint = model.footprint();
  ASSERT_EQ(footprint.size(), 2u);
  EXPECT_EQ(footprint[0], *catalog.find("cpu@server"));
  EXPECT_EQ(footprint[1], *catalog.find("bw"));
}

TEST(ModelIo, RoundTripsThroughWriter) {
  const ResourceCatalog catalog = make_catalog();
  const ModelDescription original = parse_model(kModel, catalog);
  const std::string text = write_model(original, catalog);
  const ModelDescription reparsed = parse_model(text, catalog);
  EXPECT_EQ(reparsed.service_name, original.service_name);
  EXPECT_EQ(reparsed.source_values, original.source_values);
  EXPECT_EQ(reparsed.edges, original.edges);
  EXPECT_EQ(reparsed.ranking, original.ranking);
  ASSERT_EQ(reparsed.components.size(), original.components.size());
  for (std::size_t i = 0; i < original.components.size(); ++i) {
    const auto& a = original.components[i];
    const auto& b = reparsed.components[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.host, b.host);
    EXPECT_EQ(a.out_levels, b.out_levels);
    EXPECT_EQ(a.table.size(), b.table.size());
    for (const auto& [key, req] : a.table) {
      const auto other = b.table.get(key.first, key.second);
      ASSERT_TRUE(other.has_value());
      EXPECT_EQ(req, *other);
    }
  }
}

TEST(ModelIo, ErrorsCarryLineNumbers) {
  const ResourceCatalog catalog = make_catalog();
  try {
    parse_model("service X\nbogus_keyword 1\n", catalog);
    FAIL() << "expected ModelParseError";
  } catch (const ModelParseError& error) {
    EXPECT_EQ(error.line(), 2u);
  }
}

struct BadCase {
  const char* name;
  const char* text;
};

// Without this gtest prints the struct's raw bytes, pointers included, so
// the discovered ctest names would change with every address-space layout.
void PrintTo(const BadCase& bad_case, std::ostream* os) {
  *os << bad_case.name;
}

class ModelIoErrors : public ::testing::TestWithParam<BadCase> {};

TEST_P(ModelIoErrors, Rejected) {
  const ResourceCatalog catalog = make_catalog();
  EXPECT_THROW(parse_model(GetParam().text, catalog), ModelParseError);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ModelIoErrors,
    ::testing::Values(
        BadCase{"missing_service", "source_param a\nsource 1\n"},
        BadCase{"unknown_resource",
                "service X\nsource_param a\nsource 1\ncomponent C\nparam "
                "a\nout 1\ntranslate 0 0 nosuch=1\n"},
        BadCase{"source_before_params", "service X\nsource 1\n"},
        BadCase{"arity_mismatch",
                "service X\nsource_param a b\nsource 1\n"},
        BadCase{"out_arity",
                "service X\nsource_param a\nsource 1\ncomponent C\nparam a "
                "b\nout 1\n"},
        BadCase{"translate_outside_component",
                "service X\nsource_param a\nsource 1\ntranslate 0 0 bw=1\n"},
        BadCase{"negative_index",
                "service X\nsource_param a\nsource 1\ncomponent C\nparam "
                "a\nout 1\ntranslate -1 0 bw=1\n"},
        BadCase{"bad_number",
                "service X\nsource_param a\nsource 1x\n"},
        BadCase{"no_components", "service X\nsource_param a\nsource 1\n"},
        BadCase{"bad_attribute",
                "service X\nsource_param a\nsource 1\ncomponent C "
                "color=red\n"}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

// Property: write(parse(x)) round-trips for randomly generated models.
class ModelIoRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelIoRoundTrip, RandomModelsRoundTrip) {
  Rng rng(GetParam());
  ResourceCatalog catalog;
  std::vector<std::string> resource_names;
  for (int i = 0; i < 5; ++i) {
    resource_names.push_back("res" + std::to_string(i));
    catalog.add(resource_names.back(), ResourceKind::kCpu);
  }
  for (int trial = 0; trial < 10; ++trial) {
    ModelDescription model;
    model.service_name = "svc" + std::to_string(trial);
    model.source_schema = QoSSchema({"p0", "p1"});
    model.source_values = {rng.uniform(1, 100), rng.uniform(1, 100)};
    const int k = rng.uniform_int(1, 4);
    int prev_levels = 1;
    for (int c = 0; c < k; ++c) {
      ComponentDescription component;
      component.name = "c" + std::to_string(c);
      if (rng.bernoulli(0.5))
        component.host = HostId{static_cast<std::uint32_t>(c)};
      component.schema = QoSSchema({"p0", "p1"});
      const int levels = rng.uniform_int(1, 3);
      for (int l = 0; l < levels; ++l)
        component.out_levels.emplace_back(
            component.schema,
            std::vector<double>{rng.uniform(1, 50), rng.uniform(1, 50)});
      for (int in = 0; in < prev_levels; ++in)
        for (int out = 0; out < levels; ++out)
          if (rng.bernoulli(0.7)) {
            ResourceVector req;
            const auto id = catalog.find(
                resource_names[static_cast<std::size_t>(
                    rng.uniform_int(0, 4))]);
            req.set(*id, rng.uniform(0.5, 40.0));
            component.table.set(static_cast<LevelIndex>(in),
                                static_cast<LevelIndex>(out), req);
          }
      if (component.table.size() == 0) {
        ResourceVector req;
        req.set(*catalog.find("res0"), 1.0);
        component.table.set(0, 0, req);
      }
      model.components.push_back(std::move(component));
      if (c > 0)
        model.edges.push_back({static_cast<ComponentIndex>(c - 1),
                               static_cast<ComponentIndex>(c)});
      prev_levels = levels;
    }
    const std::string text = write_model(model, catalog);
    const ModelDescription reparsed = parse_model(text, catalog);
    EXPECT_EQ(reparsed.service_name, model.service_name);
    EXPECT_EQ(reparsed.source_values, model.source_values);
    EXPECT_EQ(reparsed.edges, model.edges);
    ASSERT_EQ(reparsed.components.size(), model.components.size());
    for (std::size_t c = 0; c < model.components.size(); ++c) {
      EXPECT_EQ(reparsed.components[c].out_levels,
                model.components[c].out_levels);
      EXPECT_EQ(reparsed.components[c].host, model.components[c].host);
      for (const auto& [key, req] : model.components[c].table) {
        const auto other =
            reparsed.components[c].table.get(key.first, key.second);
        ASSERT_TRUE(other.has_value());
        EXPECT_EQ(req, *other);
      }
    }
    // And the reparsed model still instantiates.
    EXPECT_NO_THROW(reparsed.instantiate());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelIoRoundTrip,
                         ::testing::Values(101, 202, 303));

TEST(ModelIo, InstantiateValidatesGraph) {
  const ResourceCatalog catalog = make_catalog();
  // Parses fine but has a cycle: instantiate() must reject it.
  const std::string cyclic = std::string(kModel) + "link 1 0\n";
  const ModelDescription model = parse_model(cyclic, catalog);
  EXPECT_THROW(model.instantiate(), ContractViolation);
}

#ifdef QRES_SOURCE_DIR
TEST(ModelIo, ShippedVideoTrackingModelParses) {
  ResourceCatalog catalog;
  catalog.add("cpu@video-server", ResourceKind::kCpu);
  catalog.add("disk@video-server", ResourceKind::kDiskBandwidth);
  catalog.add("cpu@tracking-proxy", ResourceKind::kCpu);
  catalog.add("bw(server-proxy)", ResourceKind::kNetworkBandwidth);
  catalog.add("bw(proxy-client)", ResourceKind::kNetworkBandwidth);
  std::ifstream file(std::string(QRES_SOURCE_DIR) +
                     "/examples/models/video_tracking.qrm");
  ASSERT_TRUE(file.is_open());
  const ModelDescription model = parse_model(file, catalog);
  EXPECT_EQ(model.service_name, "VideoStreamingTracking");
  ASSERT_EQ(model.components.size(), 3u);
  EXPECT_EQ(model.components[1].name, "ObjectTracker");
  const ServiceDefinition service = model.instantiate();
  EXPECT_TRUE(service.is_chain());
  EXPECT_EQ(model.footprint().size(), 5u);

  // The instantiated service plans successfully under full availability.
  AvailabilityView view;
  for (std::uint32_t i = 0; i < 5; ++i) view.set(ResourceId{i}, 100.0);
  const Qrg qrg(service, view);
  Rng rng(1);
  const PlanResult result = BasicPlanner().plan(qrg, rng);
  ASSERT_TRUE(result.plan.has_value());
  EXPECT_EQ(result.plan->end_to_end_rank, 0u);
}
#endif

TEST(ModelIo, CommentsAndBlankLinesIgnored) {
  const ResourceCatalog catalog = make_catalog();
  const ModelDescription model = parse_model(
      "# header\n\nservice X  # trailing\n\nsource_param a\nsource 5\n"
      "component C\nparam a\nout 5\ntranslate 0 0 bw=1 # cheap\n",
      catalog);
  EXPECT_EQ(model.service_name, "X");
  EXPECT_EQ(model.components[0].table.size(), 1u);
}

}  // namespace
}  // namespace qres
