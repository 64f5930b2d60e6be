#include "api/annotation_provider.h"

#include <memory>
#include <utility>

namespace blackbox {
namespace api {

StatusOr<dataflow::AnnotatedFlow> ScaProvider::Annotate(
    const dataflow::DataFlow& flow, const SourceBindings& sources) const {
  (void)sources;
  return dataflow::Annotate(std::make_shared<const dataflow::DataFlow>(flow),
                            dataflow::AnnotationMode::kSca);
}

StatusOr<dataflow::AnnotatedFlow> ManualProvider::Annotate(
    const dataflow::DataFlow& flow, const SourceBindings& sources) const {
  (void)sources;
  return dataflow::Annotate(std::make_shared<const dataflow::DataFlow>(flow),
                            dataflow::AnnotationMode::kManual);
}

StatusOr<dataflow::AnnotatedFlow> ProfilerProvider::Annotate(
    const dataflow::DataFlow& flow, const SourceBindings& sources) const {
  for (int id = 0; id < flow.num_ops(); ++id) {
    if (flow.op(id).kind == dataflow::OpKind::kSource &&
        sources.find(id) == sources.end()) {
      return Status::InvalidArgument(
          "ProfilerProvider: source \"" + flow.op(id).name +
          "\" has no bound data (bind all sources before Optimize())");
    }
  }

  auto snapshot = std::make_shared<dataflow::DataFlow>(flow);
  if (options_.reset_hints) {
    for (int id = 0; id < snapshot->num_ops(); ++id) {
      snapshot->op(id).hints = dataflow::Hints();
    }
  }
  StatusOr<FlowProfile> profile =
      ProfileFlow(*snapshot, sources, options_.profile);
  if (!profile.ok()) return profile.status();
  ApplyProfile(*profile, snapshot.get());

  return dataflow::Annotate(
      std::shared_ptr<const dataflow::DataFlow>(std::move(snapshot)),
      options_.base_mode);
}

}  // namespace api
}  // namespace blackbox
