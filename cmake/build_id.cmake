# Script-mode generator for an embedded build id (run with `cmake -P`).
#
# Hashes every source file under SRC_DIR (sorted, content + relative
# path) into one SHA256, truncates it to 16 hex characters, and writes
# OUT_FILE defining eblnet::core::campaign::build_id(). Only
# perfbench/CMakeLists.txt still runs it: the run cache that keyed its
# entries by the id is deleted and nothing calls the function, but the
# benchmark's build stays as it is until the benchmark definition
# changes (ROADMAP item 15). The file is rewritten only when the id
# differs.
#
# Relative paths keep the id independent of the checkout location, so
# two builds of the same tree agree on the fingerprint.

if(NOT DEFINED SRC_DIR OR NOT DEFINED OUT_FILE)
  message(FATAL_ERROR "build_id.cmake needs -DSRC_DIR=... and -DOUT_FILE=...")
endif()

file(GLOB_RECURSE _sources "${SRC_DIR}/*.cpp" "${SRC_DIR}/*.hpp")
list(SORT _sources)

set(_acc "")
foreach(_f IN LISTS _sources)
  file(SHA256 "${_f}" _h)
  file(RELATIVE_PATH _rel "${SRC_DIR}" "${_f}")
  string(APPEND _acc "${_h}  ${_rel}\n")
endforeach()

string(SHA256 _id "${_acc}")
string(SUBSTRING "${_id}" 0 16 _id)

set(_content "// Generated by cmake/build_id.cmake — do not edit.
namespace eblnet::core::campaign {
const char* build_id() noexcept { return \"${_id}\"; }
}  // namespace eblnet::core::campaign
")

set(_old "")
if(EXISTS "${OUT_FILE}")
  file(READ "${OUT_FILE}" _old)
endif()
if(NOT _content STREQUAL _old)
  file(WRITE "${OUT_FILE}" "${_content}")
endif()
