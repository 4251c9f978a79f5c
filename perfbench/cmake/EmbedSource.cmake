# Forwards to the repository's helper (see ../CMakeLists.txt).
include(${CMAKE_CURRENT_LIST_DIR}/../../cmake/EmbedSource.cmake)
