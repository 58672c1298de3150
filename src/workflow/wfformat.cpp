#include "workflow/wfformat.hpp"

#include "util/error.hpp"

namespace bbsim::wf {

using json::Value;
using util::ParseError;

namespace {

/// Derive sequential flops from an observed runtime (paper Eq. (4)):
/// T_c(1) = p * (1 - lambda_io) * T(p);  flops = T_c(1) * core_speed.
double flops_from_runtime(double runtime, double cores, double io_fraction,
                          double core_speed) {
  return cores * (1.0 - io_fraction) * runtime * core_speed;
}

void parse_legacy_job(Workflow& w, const Value& job, const WfFormatOptions& opt) {
  Task t;
  t.name = job.get_string("name", job.get_string("id", ""));
  if (t.name.empty()) throw ParseError("job without name/id");
  t.type = job.get_string("category", job.get_string("type", "compute"));
  t.requested_cores = static_cast<int>(job.get_int("cores", 1));
  t.alpha = job.get_number("alpha", 0.0);
  const double io_fraction = job.get_number("ioFraction", opt.default_io_fraction);
  if (job.contains("files")) {
    for (const Value& f : job.at("files").as_array()) {
      const std::string fname = f.get_string("name", f.get_string("id", ""));
      if (fname.empty()) throw ParseError("file without name in job '" + t.name + "'");
      const double size = f.get_number("size", f.get_number("sizeInBytes", 0.0));
      w.add_file(File{fname, size});
      const std::string link = f.get_string("link", "input");
      if (link == "output") {
        t.outputs.push_back(fname);
      } else {
        t.inputs.push_back(fname);
      }
    }
  }
  if (job.contains("flops")) {
    t.flops = job.at("flops").as_number();
  } else {
    const double runtime = job.get_number("runtime",
                                          job.get_number("runtimeInSeconds", 0.0));
    t.flops = flops_from_runtime(runtime, t.requested_cores, io_fraction,
                                 opt.reference_core_speed);
  }
  w.add_task(std::move(t));
}

Workflow parse_legacy(const Value& doc, const Value& wf_node, const WfFormatOptions& opt) {
  Workflow w;
  w.name = doc.get_string("name", "workflow");
  for (const Value& job : wf_node.at("jobs").as_array()) parse_legacy_job(w, job, opt);
  // Optional explicit dependency lists ("parents": [names]).
  for (const Value& job : wf_node.at("jobs").as_array()) {
    const std::string child = job.get_string("name", job.get_string("id", ""));
    if (job.contains("parents")) {
      for (const Value& p : job.at("parents").as_array()) {
        w.add_control_dep(p.as_string(), child);
      }
    }
  }
  return w;
}

Workflow parse_modern(const Value& doc, const Value& wf_node, const WfFormatOptions& opt) {
  Workflow w;
  w.name = doc.get_string("name", "workflow");
  const Value& spec = wf_node.at("specification");

  if (spec.contains("files")) {
    for (const Value& f : spec.at("files").as_array()) {
      const std::string fname = f.get_string("id", f.get_string("name", ""));
      if (fname.empty()) throw ParseError("file without id");
      w.add_file(File{fname, f.get_number("sizeInBytes", f.get_number("size", 0.0))});
    }
  }

  // Execution metadata (runtimes) indexed by task id.
  std::map<std::string, const Value*> exec_by_id;
  if (wf_node.contains("execution") && wf_node.at("execution").contains("tasks")) {
    for (const Value& et : wf_node.at("execution").at("tasks").as_array()) {
      exec_by_id[et.get_string("id", et.get_string("name", ""))] = &et;
    }
  }

  for (const Value& tv : spec.at("tasks").as_array()) {
    Task t;
    t.name = tv.get_string("id", tv.get_string("name", ""));
    if (t.name.empty()) throw ParseError("task without id/name");
    t.type = tv.get_string("category", tv.get_string("type", "compute"));
    t.alpha = tv.get_number("alpha", 0.0);
    if (tv.contains("inputFiles")) {
      for (const Value& f : tv.at("inputFiles").as_array()) t.inputs.push_back(f.as_string());
    }
    if (tv.contains("outputFiles")) {
      for (const Value& f : tv.at("outputFiles").as_array()) t.outputs.push_back(f.as_string());
    }
    double runtime = tv.get_number("runtimeInSeconds", 0.0);
    double cores = 1.0;
    double io_fraction = tv.get_number("ioFraction", opt.default_io_fraction);
    if (const auto it = exec_by_id.find(t.name); it != exec_by_id.end()) {
      runtime = it->second->get_number("runtimeInSeconds", runtime);
      cores = it->second->get_number("coreCount", cores);
      io_fraction = it->second->get_number("ioFraction", io_fraction);
    }
    t.requested_cores = std::max(1, static_cast<int>(cores));
    if (tv.contains("flops")) {
      t.flops = tv.at("flops").as_number();
    } else {
      t.flops = flops_from_runtime(runtime, t.requested_cores, io_fraction,
                                   opt.reference_core_speed);
    }
    w.add_task(std::move(t));
  }

  // Explicit parent/child lists (file-induced edges are derived anyway).
  for (const Value& tv : spec.at("tasks").as_array()) {
    const std::string name = tv.get_string("id", tv.get_string("name", ""));
    if (tv.contains("parents")) {
      for (const Value& p : tv.at("parents").as_array()) {
        w.add_control_dep(p.as_string(), name);
      }
    }
  }
  return w;
}

}  // namespace

Workflow from_wfformat(const Value& doc, const WfFormatOptions& opt) {
  if (!doc.contains("workflow")) throw ParseError("missing top-level 'workflow' object");
  const Value& wf_node = doc.at("workflow");
  Workflow w;
  if (wf_node.contains("jobs")) {
    w = parse_legacy(doc, wf_node, opt);
  } else if (wf_node.contains("specification")) {
    w = parse_modern(doc, wf_node, opt);
  } else {
    throw ParseError("workflow object has neither 'jobs' nor 'specification'");
  }
  w.validate();
  return w;
}

Workflow load_workflow(const std::string& path, const WfFormatOptions& opt) {
  return from_wfformat(json::parse_file(path), opt);
}

json::Value to_wfformat(const Workflow& workflow) {
  json::Object root;
  root.set("name", workflow.name);
  root.set("schemaVersion", "bbsim-legacy-1.0");
  json::Object wf_node;
  json::Array jobs;
  for (const Task& t : workflow.tasks()) {
    json::Object job;
    job.set("name", t.name);
    job.set("type", t.type);
    job.set("cores", t.requested_cores);
    job.set("flops", t.flops);
    job.set("alpha", t.alpha);
    json::Array files;
    auto add_file = [&](const std::string& fname, const char* link) {
      json::Object f;
      f.set("name", fname);
      f.set("size", workflow.file(fname).size);
      f.set("link", link);
      files.push_back(Value(std::move(f)));
    };
    for (const std::string& f : t.inputs) add_file(f, "input");
    for (const std::string& f : t.outputs) add_file(f, "output");
    job.set("files", Value(std::move(files)));
    jobs.push_back(Value(std::move(job)));
  }
  wf_node.set("jobs", Value(std::move(jobs)));
  root.set("workflow", Value(std::move(wf_node)));
  return Value(std::move(root));
}

void save_workflow(const std::string& path, const Workflow& workflow) {
  json::write_file(path, to_wfformat(workflow));
}

}  // namespace bbsim::wf
