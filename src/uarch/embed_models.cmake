# Writes a C++ translation unit that embeds every machine-description file
# of a directory, so the built-in machines are built from the checked-in
# models/*.mdf rather than restated in code.
#
#   cmake -DMODELS_DIR=<dir with *.mdf> -DOUT=<file.cpp> -P embed_models.cmake
cmake_minimum_required(VERSION 3.20)

file(GLOB models "${MODELS_DIR}/*.mdf")
list(SORT models)
if(NOT models)
  message(FATAL_ERROR "no machine-description files in ${MODELS_DIR}")
endif()

set(entries "")
foreach(path IN LISTS models)
  get_filename_component(stem "${path}" NAME_WLE)
  file(READ "${path}" text)
  # ISO C++ only requires compilers to accept string literals of 65,536
  # characters, and -Wpedantic warns beyond that.
  string(LENGTH "${text}" bytes)
  if(bytes GREATER_EQUAL 65536)
    message(FATAL_ERROR "${path}: ${bytes} bytes; one embedded string "
                        "literal holds less than 65,536")
  endif()
  string(FIND "${text}" ")mdf\"" clash)
  if(NOT clash EQUAL -1)
    message(FATAL_ERROR "${path}: contains the raw-string delimiter )mdf\"")
  endif()
  string(APPEND entries "      {\"${stem}\", R\"mdf(${text})mdf\"},\n")
endforeach()

set(source [=[
// Generated from models/*.mdf by src/uarch/embed_models.cmake; do not edit.
#include "uarch/embedded_models.hpp"

namespace incore::uarch::detail {

std::string_view embedded_model_text(std::string_view stem) {
  struct Model {
    std::string_view stem;
    std::string_view text;
  };
  static constexpr Model kModels[] = {
@ENTRIES@  };
  for (const Model& m : kModels) {
    if (m.stem == stem) return m.text;
  }
  return {};
}

}  // namespace incore::uarch::detail
]=])
string(REPLACE "@ENTRIES@" "${entries}" source "${source}")
file(WRITE "${OUT}" "${source}")
