#include "workflow/swarp.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace bbsim::wf {

Workflow make_swarp(const SwarpConfig& config) {
  if (config.pipelines < 1 || config.images_per_pipeline < 1) {
    throw util::ConfigError("swarp: pipelines and images_per_pipeline must be >= 1");
  }
  Workflow w;
  w.name = util::format("swarp-%dp", config.pipelines);

  Task stage_in;
  if (config.with_stage_in && !config.stage_in_per_pipeline) {
    stage_in.name = "stage_in";
    stage_in.type = kStageInType;
    stage_in.flops = 0.0;
    stage_in.requested_cores = 1;  // "the stage-in task is always sequential"
  }

  for (int p = 0; p < config.pipelines; ++p) {
    Task resample;
    resample.name = util::format("resample_%03d", p);
    resample.type = "resample";
    resample.flops = config.resample_seq_seconds * config.reference_core_speed;
    resample.alpha = config.resample_alpha;
    resample.requested_cores = config.cores_per_task;

    Task combine;
    combine.name = util::format("combine_%03d", p);
    combine.type = "combine";
    combine.flops = config.combine_seq_seconds * config.reference_core_speed;
    combine.alpha = config.combine_alpha;
    combine.requested_cores = config.cores_per_task;

    for (int i = 0; i < config.images_per_pipeline; ++i) {
      const std::string img = util::format("p%03d_img_%02d.fits", p, i);
      const std::string wgt = util::format("p%03d_wgt_%02d.fits", p, i);
      const std::string rimg = util::format("p%03d_img_%02d.resamp.fits", p, i);
      const std::string rwgt = util::format("p%03d_wgt_%02d.resamp.fits", p, i);
      w.add_file(File{img, config.image_size});
      w.add_file(File{wgt, config.weight_size});
      w.add_file(File{rimg, config.image_size});
      w.add_file(File{rwgt, config.weight_size});
      resample.inputs.push_back(img);
      resample.inputs.push_back(wgt);
      resample.outputs.push_back(rimg);
      resample.outputs.push_back(rwgt);
      combine.inputs.push_back(rimg);
      combine.inputs.push_back(rwgt);
    }
    const std::string coadd = util::format("p%03d_coadd.fits", p);
    const std::string coadd_w = util::format("p%03d_coadd.weight.fits", p);
    w.add_file(File{coadd, config.combine_output_scale * config.image_size});
    w.add_file(File{coadd_w, config.combine_output_scale * config.weight_size});
    combine.outputs.push_back(coadd);
    combine.outputs.push_back(coadd_w);

    w.add_task(std::move(resample));
    w.add_task(std::move(combine));

    if (config.with_stage_in && config.stage_in_per_pipeline) {
      Task own_stage;
      own_stage.name = util::format("stage_in_%03d", p);
      own_stage.type = kStageInType;
      own_stage.flops = 0.0;
      own_stage.requested_cores = 1;
      w.add_task(std::move(own_stage));
      w.add_control_dep(util::format("stage_in_%03d", p),
                        util::format("resample_%03d", p));
    }
  }

  if (config.with_stage_in && !config.stage_in_per_pipeline) {
    w.add_task(std::move(stage_in));
    for (int p = 0; p < config.pipelines; ++p) {
      w.add_control_dep("stage_in", util::format("resample_%03d", p));
    }
  }

  w.validate();
  return w;
}

}  // namespace bbsim::wf
