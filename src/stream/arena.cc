#include "stream/arena.h"

namespace esp::stream {

TupleArena& TupleArena::Local() {
  thread_local TupleArena arena;
  return arena;
}

}  // namespace esp::stream
