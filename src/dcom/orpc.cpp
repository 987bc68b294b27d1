#include "dcom/orpc.h"

#include "common/strings.h"

namespace oftt::dcom {

std::string ObjectRef::to_string() const {
  return cat("objref(node=", node, ", port=", port, ", oid=", oid, ")");
}

}  // namespace oftt::dcom
