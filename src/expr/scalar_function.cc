#include "expr/scalar_function.h"

#include <cmath>

#include "common/hash.h"
#include "common/string_util.h"

namespace streamop {

namespace {

Result<Value> ScalarUmax(const Value* args, size_t /*num_args*/) {
  // Unsigned max, the paper's UMAX(sum(len), ssthreshold()).
  return Value::UInt(std::max(args[0].AsUInt(), args[1].AsUInt()));
}

Result<Value> ScalarUmin(const Value* args, size_t /*num_args*/) {
  return Value::UInt(std::min(args[0].AsUInt(), args[1].AsUInt()));
}

Result<Value> ScalarDmax(const Value* args, size_t /*num_args*/) {
  return Value::Double(std::max(args[0].AsDouble(), args[1].AsDouble()));
}

Result<Value> ScalarDmin(const Value* args, size_t /*num_args*/) {
  return Value::Double(std::min(args[0].AsDouble(), args[1].AsDouble()));
}

Result<Value> ScalarHash(const Value* args, size_t num_args) {
  // H(x [, seed]): the min-hash hash function, uniform over u64.
  uint64_t seed = num_args > 1 ? args[1].AsUInt() : 0;
  return Value::UInt(SeededHash64(args[0].Hash(), seed));
}

Result<Value> ScalarAbs(const Value* args, size_t /*num_args*/) {
  const Value& v = args[0];
  if (v.type() == FieldType::kDouble) {
    return Value::Double(std::fabs(v.double_value()));
  }
  // Two's-complement negation, as in the evaluator: ABS(INT64_MIN) wraps
  // to INT64_MIN.
  int64_t i = v.AsInt();
  return Value::Int(i < 0 ? static_cast<int64_t>(0 - static_cast<uint64_t>(i))
                          : i);
}

Result<Value> ScalarFloat(const Value* args, size_t /*num_args*/) {
  return Value::Double(args[0].AsDouble());
}

Result<Value> ScalarUint(const Value* args, size_t /*num_args*/) {
  return Value::UInt(args[0].AsUInt());
}

Result<Value> ScalarIpStr(const Value* args, size_t /*num_args*/) {
  return Value::String(FormatIpv4(static_cast<uint32_t>(args[0].AsUInt())));
}

Result<Value> ScalarPrio(const Value* args, size_t num_args) {
  // PRIO(w, key [, seed]): priority-sampling priority q = w / u with u a
  // uniform (0,1] variate *derived deterministically from the tuple key*
  // (hash randomness instead of an RNG keeps query replays reproducible).
  double w = args[0].AsDouble();
  uint64_t seed = num_args > 2 ? args[2].AsUInt() : UINT64_C(0x9e3779b9);
  uint64_t h = SeededHash64(args[1].Hash(), seed);
  double u = (static_cast<double>(h >> 11) + 1.0) * 0x1.0p-53;  // (0, 1]
  return Value::Double(w / u);
}

}  // namespace

ScalarFunctionRegistry::ScalarFunctionRegistry() {
  defs_.push_back({"UMAX", 2, 2, ScalarUmax});
  defs_.push_back({"UMIN", 2, 2, ScalarUmin});
  defs_.push_back({"DMAX", 2, 2, ScalarDmax});
  defs_.push_back({"DMIN", 2, 2, ScalarDmin});
  defs_.push_back({"H", 1, 2, ScalarHash});
  defs_.push_back({"ABS", 1, 1, ScalarAbs});
  defs_.push_back({"FLOAT", 1, 1, ScalarFloat});
  defs_.push_back({"UINT", 1, 1, ScalarUint});
  defs_.push_back({"IPSTR", 1, 1, ScalarIpStr});
  defs_.push_back({"PRIO", 2, 3, ScalarPrio});
}

ScalarFunctionRegistry& ScalarFunctionRegistry::Global() {
  static ScalarFunctionRegistry* instance = new ScalarFunctionRegistry();
  return *instance;
}

Status ScalarFunctionRegistry::Register(ScalarFunctionDef def) {
  if (Find(def.name) != nullptr) {
    return Status::AlreadyExists("scalar function '" + def.name +
                                 "' already registered");
  }
  defs_.push_back(std::move(def));
  return Status::OK();
}

const ScalarFunctionDef* ScalarFunctionRegistry::Find(
    const std::string& name) const {
  for (const auto& d : defs_) {
    if (EqualsIgnoreCase(d.name, name)) return &d;
  }
  return nullptr;
}

}  // namespace streamop
