#!/bin/bash
# BENCHMARK.json's command: build and run the bench module from wherever the
# driver starts it, passing its arguments through.
cd "$(dirname "$0")" && exec go run -buildvcs=false . "$@"
